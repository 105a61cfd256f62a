#ifndef TREEDIFF_UTIL_TOKENIZE_H_
#define TREEDIFF_UTIL_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace treediff {

/// Splits `text` into whitespace-separated words. Consecutive whitespace is
/// collapsed; leading/trailing whitespace is ignored. Words keep punctuation
/// attached ("end." stays "end.") unless `strip_punct` is true, in which case
/// leading and trailing ASCII punctuation is removed and words are lowercased
/// so that "The," and "the" compare equal.
std::vector<std::string> SplitWords(std::string_view text,
                                    bool strip_punct = false);

/// Returns `text` with leading and trailing ASCII whitespace removed.
std::string_view TrimWhitespace(std::string_view text);

/// Collapses every run of whitespace (including newlines) in `text` to a
/// single space and trims the ends. Used to normalize sentence values.
std::string CollapseWhitespace(std::string_view text);

/// True if `text` is empty or consists solely of ASCII whitespace.
bool IsBlank(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);
}  // namespace treediff

#endif  // TREEDIFF_UTIL_TOKENIZE_H_

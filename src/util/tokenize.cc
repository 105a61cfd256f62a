#include "util/tokenize.h"

#include <cctype>

namespace treediff {

namespace {

bool IsSpaceChar(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool IsPunctChar(char c) {
  return std::ispunct(static_cast<unsigned char>(c)) != 0;
}

std::string NormalizeWord(std::string_view word) {
  size_t begin = 0;
  size_t end = word.size();
  while (begin < end && IsPunctChar(word[begin])) ++begin;
  while (end > begin && IsPunctChar(word[end - 1])) --end;
  std::string out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(word[i]))));
  }
  return out;
}

}  // namespace

std::vector<std::string> SplitWords(std::string_view text, bool strip_punct) {
  std::vector<std::string> words;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && IsSpaceChar(text[i])) ++i;
    size_t start = i;
    while (i < n && !IsSpaceChar(text[i])) ++i;
    if (i > start) {
      std::string_view raw = text.substr(start, i - start);
      if (strip_punct) {
        std::string normalized = NormalizeWord(raw);
        if (!normalized.empty()) words.push_back(std::move(normalized));
      } else {
        words.emplace_back(raw);
      }
    }
  }
  return words;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsSpaceChar(text[begin])) ++begin;
  while (end > begin && IsSpaceChar(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::string CollapseWhitespace(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool in_space = false;
  for (char c : TrimWhitespace(text)) {
    if (IsSpaceChar(c)) {
      in_space = true;
    } else {
      if (in_space && !out.empty()) out.push_back(' ');
      in_space = false;
      out.push_back(c);
    }
  }
  return out;
}

bool IsBlank(std::string_view text) {
  for (char c : text) {
    if (!IsSpaceChar(c)) return false;
  }
  return true;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}
}  // namespace treediff

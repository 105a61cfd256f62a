#ifndef TREEDIFF_TREE_SCHEMA_H_
#define TREEDIFF_TREE_SCHEMA_H_

#include <string_view>
#include <unordered_map>

#include "tree/tree.h"
#include "util/status.h"

namespace treediff {

/// The acyclic-labels condition of Section 5.1: there is an ordering <_l on
/// labels such that a node with label l1 appears as a descendant of a node
/// with label l2 only if l1 <_l l2. This schema assigns each label a rank and
/// checks that every parent/child edge strictly decreases rank downward.
///
/// The paper resolves label cycles (e.g., itemize inside enumerate) by merging
/// semantically similar labels; our LaTeX/HTML parsers follow suit by mapping
/// every list environment to the single label "list".
class LabelSchema {
 public:
  LabelSchema() = default;

  /// Assigns `rank` to `label` (higher rank = closer to the root).
  void SetRank(LabelId label, int rank);

  /// Returns the rank of `label`, or -1 if the label is not in the schema.
  int Rank(LabelId label) const;

  /// True if every edge of `tree` satisfies rank(child) < rank(parent).
  /// Labels absent from the schema fail the check.
  Status CheckAcyclic(const Tree& tree) const;

 private:
  std::unordered_map<LabelId, int> ranks_;
};

/// Canonical label names of the structured-document schema (Section 7): a
/// Document contains Sections, Sections contain Subsections/Paragraphs/Lists,
/// Lists contain Items, Items and Paragraphs contain Sentences.
namespace doc_labels {
inline constexpr std::string_view kDocument = "document";
inline constexpr std::string_view kSection = "section";
inline constexpr std::string_view kSubsection = "subsection";
inline constexpr std::string_view kParagraph = "paragraph";
inline constexpr std::string_view kList = "list";
inline constexpr std::string_view kItem = "item";
inline constexpr std::string_view kSentence = "sentence";
}  // namespace doc_labels

/// Builds the document schema over `labels` with the natural ordering
/// sentence < paragraph < item < list < subsection < section < document
/// (Section 5.1's example, with all list kinds merged into "list").
LabelSchema MakeDocumentSchema(LabelTable* labels);

}  // namespace treediff

#endif  // TREEDIFF_TREE_SCHEMA_H_

#include "tree/schema.h"

namespace treediff {

void LabelSchema::SetRank(LabelId label, int rank) { ranks_[label] = rank; }

int LabelSchema::Rank(LabelId label) const {
  auto it = ranks_.find(label);
  return it == ranks_.end() ? -1 : it->second;
}

Status LabelSchema::CheckAcyclic(const Tree& tree) const {
  if (tree.root() == kInvalidNode) return Status::Ok();
  for (NodeId x : tree.PreOrder()) {
    const int rx = Rank(tree.label(x));
    if (rx < 0) {
      return Status::FailedPrecondition("label '" + tree.label_name(x) +
                                        "' is not in the schema");
    }
    NodeId p = tree.parent(x);
    if (p != kInvalidNode && Rank(tree.label(p)) <= rx) {
      return Status::FailedPrecondition(
          "edge " + tree.label_name(p) + " -> " + tree.label_name(x) +
          " violates the acyclic-labels condition");
    }
  }
  return Status::Ok();
}

LabelSchema MakeDocumentSchema(LabelTable* labels) {
  LabelSchema schema;
  schema.SetRank(labels->Intern(doc_labels::kSentence), 0);
  schema.SetRank(labels->Intern("codeblock"), 0);
  schema.SetRank(labels->Intern(doc_labels::kParagraph), 1);
  schema.SetRank(labels->Intern(doc_labels::kItem), 2);
  schema.SetRank(labels->Intern(doc_labels::kList), 3);
  schema.SetRank(labels->Intern(doc_labels::kSubsection), 4);
  schema.SetRank(labels->Intern(doc_labels::kSection), 5);
  schema.SetRank(labels->Intern(doc_labels::kDocument), 6);
  return schema;
}

}  // namespace treediff

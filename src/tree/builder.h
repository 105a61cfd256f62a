#ifndef TREEDIFF_TREE_BUILDER_H_
#define TREEDIFF_TREE_BUILDER_H_

#include <memory>
#include <string_view>

#include "tree/tree.h"
#include "util/status.h"

namespace treediff {

/// The deepest nesting ParseSexpr accepts (the root is depth 1): the
/// default of XmlParseOptions::max_depth, so both service formats share
/// one limit.
inline constexpr int kSexprMaxDepth = 256;

/// Parses a tree from an s-expression, the inverse of Tree::ToDebugString.
/// Grammar:
///
///   tree  := '(' label value? tree* ')'
///   label := one or more characters other than space, quote, parentheses
///   value := '"' characters with \" and \\ escapes '"'
///
/// Example: (D (P (S "a") (S "b")) (P (S "c")))
///
/// Whitespace is the C-locale isspace set. Node ids are assigned in
/// pre-order. Nesting deeper than kSexprMaxDepth returns kResourceExhausted;
/// any other malformed input returns kParseError naming the byte offset.
///
/// Labels are interned into `labels` (a fresh table is created when null);
/// each distinct label takes the table's lock once per parse. The parse is
/// one iterative pass, so hostile input cannot exhaust the call stack.
StatusOr<Tree> ParseSexpr(std::string_view text,
                          std::shared_ptr<LabelTable> labels = nullptr);

}  // namespace treediff

#endif  // TREEDIFF_TREE_BUILDER_H_

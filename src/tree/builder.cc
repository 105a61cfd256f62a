#include "tree/builder.h"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace treediff {

namespace {

// Byte classes: the C-locale isspace set, and the bytes that end a label
// (whitespace, parentheses, quote).
constexpr uint8_t kSpace = 1;
constexpr uint8_t kLabelEnd = 2;

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[c] = kSpace | kLabelEnd;
  }
  for (unsigned char c : {'(', ')', '"'}) classes[c] = kLabelEnd;
  return classes;
}

constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

/// Label name -> id for one parse. Names are views into the parsed text, so
/// the shared LabelTable (and its lock) is touched once per distinct label.
/// Open addressing with linear probing; grows at half load.
class LabelMap {
 public:
  explicit LabelMap(LabelTable* table) : table_(table), slots_(16) {}

  LabelId Intern(std::string_view name) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<std::string_view>()(name) & mask;;
         i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kInvalidLabel) {
        slot = {name, table_->Intern(name)};
        const LabelId id = slot.id;
        if (2 * ++used_ > slots_.size()) Grow();
        return id;
      }
      if (slot.name == name) return slot.id;
    }
  }

 private:
  struct Slot {
    std::string_view name;
    LabelId id = kInvalidLabel;
  };

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kInvalidLabel) continue;
      size_t i = std::hash<std::string_view>()(slot.name) & mask;
      while (slots_[i].id != kInvalidLabel) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  LabelTable* table_;
  std::vector<Slot> slots_;
  size_t used_ = 0;
};

Status Expected(char c, size_t pos) {
  return Status::ParseError(std::string("expected '") + c + "' at offset " +
                            std::to_string(pos));
}

}  // namespace

StatusOr<Tree> ParseSexpr(std::string_view text,
                          std::shared_ptr<LabelTable> labels) {
  Tree tree(std::move(labels));
  LabelMap label_ids(tree.label_table().get());
  const size_t n = text.size();
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < n &&
           (kByteClasses[static_cast<unsigned char>(text[pos])] & kSpace)) {
      ++pos;
    }
  };

  // The open nodes, root first. Each pass of the loop reads one node's
  // '(' label value?, then closes nodes until the next '(' or the end.
  std::vector<NodeId> open;
  skip_space();
  if (pos == n || text[pos] != '(') return Expected('(', pos);
  while (true) {
    // At '('.
    if (open.size() == static_cast<size_t>(kSexprMaxDepth)) {
      return Status::ResourceExhausted(
          "s-expression nesting exceeds max_depth (" +
          std::to_string(kSexprMaxDepth) + ") at offset " +
          std::to_string(pos));
    }
    ++pos;
    skip_space();
    const size_t label_start = pos;
    while (pos < n &&
           !(kByteClasses[static_cast<unsigned char>(text[pos])] &
             kLabelEnd)) {
      ++pos;
    }
    if (pos == label_start) {
      return Status::ParseError("expected label at offset " +
                                std::to_string(pos));
    }
    const LabelId label =
        label_ids.Intern(text.substr(label_start, pos - label_start));
    skip_space();

    std::string value;
    if (pos < n && text[pos] == '"') {
      // Find the closing quote first, so the value is sized once and then
      // copied in runs between escapes.
      const size_t start = ++pos;
      size_t escapes = 0;
      while (pos < n && text[pos] != '"') {
        if (text[pos] == '\\' && pos + 1 < n) {
          ++escapes;
          ++pos;
        }
        ++pos;
      }
      if (pos == n) return Expected('"', pos);
      if (escapes == 0) {
        value.assign(text.data() + start, pos - start);
      } else {
        value.reserve(pos - start - escapes);
        size_t run = start;
        for (size_t i = start; i < pos; ++i) {
          if (text[i] != '\\') continue;
          value.append(text.data() + run, i - run);
          run = ++i;  // The escaped byte opens the next run.
        }
        value.append(text.data() + run, pos - run);
      }
      ++pos;
      skip_space();
    }
    open.push_back(open.empty()
                       ? tree.AddRoot(label, std::move(value))
                       : tree.AddChild(open.back(), label, std::move(value)));

    // Close nodes until a child opens or the root closes.
    while (pos == n || text[pos] != '(') {
      if (pos == n || text[pos] != ')') return Expected(')', pos);
      ++pos;
      open.pop_back();
      skip_space();
      if (open.empty()) {
        if (pos != n) {
          return Status::ParseError(
              "trailing characters after tree at offset " +
              std::to_string(pos));
        }
        return tree;
      }
    }
  }
}

}  // namespace treediff

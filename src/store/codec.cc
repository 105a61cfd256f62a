#include "store/codec.h"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "tree/tree_access.h"

namespace treediff {

// ---------------------------------------------------------------------------
// Coding helpers

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4] = {static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
                 static_cast<char>((v >> 16) & 0xFF),
                 static_cast<char>((v >> 24) & 0xFF)};
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

uint32_t DecodeFixed32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view* input, uint64_t* v) {
  uint64_t result = 0;
  for (unsigned shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint8_t byte = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    } else {
      result |= static_cast<uint64_t>(byte) << shift;
      *v = result;
      return true;
    }
  }
  return false;  // Truncated or overlong.
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

bool GetLengthPrefixed(std::string_view* input, std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len)) return false;
  if (len > input->size()) return false;
  *out = input->substr(0, static_cast<size_t>(len));
  input->remove_prefix(static_cast<size_t>(len));
  return true;
}

// ---------------------------------------------------------------------------
// Tree codec

namespace {

constexpr uint8_t kCodecVersion = 1;
constexpr uint8_t kFlagAlive = 0x01;

Status CodecError(const std::string& what) {
  return Status::ParseError("tree codec: " + what);
}

}  // namespace

std::string EncodeTree(const Tree& tree) {
  const auto id_bound = static_cast<NodeId>(tree.id_bound());
  std::string out;
  out.push_back(static_cast<char>(kCodecVersion));
  PutVarint64(&out, tree.id_bound());
  PutVarint64(&out, static_cast<uint64_t>(tree.root() + 1));

  // Local label table: referenced labels in order of first appearance.
  std::vector<LabelId> local_of_global;  // global id -> local id + 1 (0 = none)
  std::vector<LabelId> globals;          // local id -> global id
  for (NodeId x = 0; x < id_bound; ++x) {
    const LabelId label = tree.label(x);
    if (label < 0) continue;
    if (static_cast<size_t>(label) >= local_of_global.size()) {
      local_of_global.resize(static_cast<size_t>(label) + 1, 0);
    }
    if (local_of_global[static_cast<size_t>(label)] == 0) {
      globals.push_back(label);
      local_of_global[static_cast<size_t>(label)] =
          static_cast<LabelId>(globals.size());
    }
  }
  PutVarint64(&out, globals.size());
  for (LabelId g : globals) PutLengthPrefixed(&out, tree.labels().Name(g));

  for (NodeId x = 0; x < id_bound; ++x) {
    const bool alive = tree.Alive(x);
    const LabelId label = tree.label(x);
    out.push_back(static_cast<char>(alive ? kFlagAlive : 0));
    uint64_t local =
        label < 0 ? 0
                  : static_cast<uint64_t>(
                        local_of_global[static_cast<size_t>(label)]);
    PutVarint64(&out, local);  // 0 = no label (never produced in practice).
    PutLengthPrefixed(&out, tree.value(x));
    PutVarint64(&out, static_cast<uint64_t>(tree.parent(x) + 1));
    if (alive) {
      const std::span<const NodeId> kids = tree.children(x);
      PutVarint64(&out, kids.size());
      for (NodeId c : kids) PutVarint64(&out, static_cast<uint64_t>(c));
    }
  }
  return out;
}

StatusOr<Tree> DecodeTree(std::string_view data,
                          std::shared_ptr<LabelTable> labels) {
  std::string_view in = data;
  if (in.empty()) return CodecError("empty input");
  uint8_t version = static_cast<uint8_t>(in.front());
  in.remove_prefix(1);
  if (version != kCodecVersion) {
    return CodecError("unsupported version " + std::to_string(version));
  }
  // Value and child spans are 32-bit, and each is at most the input.
  if (data.size() > std::numeric_limits<uint32_t>::max()) {
    return CodecError("input exceeds 4 GiB");
  }

  uint64_t id_bound = 0, root_plus1 = 0, label_count = 0;
  if (!GetVarint64(&in, &id_bound) || !GetVarint64(&in, &root_plus1)) {
    return CodecError("truncated header");
  }
  // Each node costs at least 4 encoded bytes; a bound past that is a
  // corrupt length, not a huge tree — reject before allocating.
  if (id_bound > data.size()) return CodecError("implausible id bound");
  if (root_plus1 > id_bound) return CodecError("root out of range");

  if (!GetVarint64(&in, &label_count)) return CodecError("truncated labels");
  if (label_count > data.size()) return CodecError("implausible label count");
  if (!labels) labels = std::make_shared<LabelTable>();
  std::vector<LabelId> globals;
  globals.reserve(static_cast<size_t>(label_count));
  for (uint64_t i = 0; i < label_count; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(&in, &name) || name.empty()) {
      return CodecError("bad label name");
    }
    globals.push_back(labels->Intern(name));
  }

  Tree tree(std::move(labels));
  // Values and child ids are each at most the input's bytes.
  TreeCodecAccess::Reserve(&tree, static_cast<size_t>(id_bound), in.size(),
                           static_cast<size_t>(id_bound));
  std::string& values = TreeCodecAccess::values(&tree);
  std::vector<NodeId> kids;
  size_t live = 0;
  for (uint64_t i = 0; i < id_bound; ++i) {
    if (in.empty()) return CodecError("truncated node");
    uint8_t flags = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);
    if (flags & ~kFlagAlive) return CodecError("unknown node flags");
    const bool alive = (flags & kFlagAlive) != 0;
    if (alive) ++live;

    uint64_t local = 0;
    if (!GetVarint64(&in, &local)) return CodecError("truncated label ref");
    if (local == 0 || local > globals.size()) {
      return CodecError("label ref out of range");
    }
    const LabelId label = globals[static_cast<size_t>(local - 1)];

    std::string_view value;
    if (!GetLengthPrefixed(&in, &value)) return CodecError("truncated value");

    uint64_t parent_plus1 = 0;
    if (!GetVarint64(&in, &parent_plus1)) return CodecError("truncated parent");
    if (parent_plus1 > id_bound) return CodecError("parent out of range");
    const NodeId parent = static_cast<NodeId>(parent_plus1) - 1;
    if (!alive && parent != kInvalidNode) {
      return CodecError("dead slot with a parent");
    }
    const size_t value_offset = values.size();
    values.append(value);
    const NodeId id =
        TreeCodecAccess::AddNode(&tree, label, parent, alive, value_offset);

    if (alive) {
      uint64_t nchildren = 0;
      if (!GetVarint64(&in, &nchildren)) {
        return CodecError("truncated child count");
      }
      if (nchildren > id_bound) return CodecError("implausible child count");
      kids.clear();
      for (uint64_t c = 0; c < nchildren; ++c) {
        uint64_t child = 0;
        if (!GetVarint64(&in, &child)) return CodecError("truncated child id");
        if (child >= id_bound) return CodecError("child out of range");
        kids.push_back(static_cast<NodeId>(child));
      }
      TreeCodecAccess::SetChildren(&tree, id, kids);
    }
  }
  if (!in.empty()) return CodecError("trailing bytes");

  NodeId root = static_cast<NodeId>(root_plus1) - 1;
  if (root == kInvalidNode && live != 0) {
    return CodecError("live nodes but no root");
  }
  if (root != kInvalidNode && !tree.Alive(root)) {
    return CodecError("root is not a live node");
  }
  TreeCodecAccess::Finish(&tree, root, live);
  // Full structural validation (parent/child symmetry, acyclicity,
  // reachability): corrupt bytes that survived the per-field checks — e.g.
  // a child list naming a dead node, or a cycle — are caught here rather
  // than poisoning the store.
  Status valid = tree.Validate();
  if (!valid.ok()) return CodecError("invalid structure: " + valid.message());
  return tree;
}

}  // namespace treediff

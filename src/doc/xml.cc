#include "doc/xml.h"

#include <cctype>
#include <vector>

#include "doc/sentence.h"
#include "util/tokenize.h"

namespace treediff {

namespace {

constexpr std::string_view kTextLabel = "#text";

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) != 0 ||
         c == '-' || c == '.';
}

std::string DecodeXmlEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out.push_back(text[i]);
      continue;
    }
    const size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back('&');
      continue;
    }
    std::string_view name = text.substr(i + 1, semi - i - 1);
    if (name == "amp") {
      out.push_back('&');
    } else if (name == "lt") {
      out.push_back('<');
    } else if (name == "gt") {
      out.push_back('>');
    } else if (name == "quot") {
      out.push_back('"');
    } else if (name == "apos") {
      out.push_back('\'');
    } else if (!name.empty() && name[0] == '#') {
      int code = 0;
      bool ok = !name.substr(1).empty();
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (char c : name.substr(2)) {
          if (std::isxdigit(static_cast<unsigned char>(c)) == 0) {
            ok = false;
            break;
          }
          code = code * 16 + (std::isdigit(static_cast<unsigned char>(c))
                                  ? c - '0'
                                  : (std::tolower(c) - 'a' + 10));
        }
      } else {
        for (char c : name.substr(1)) {
          if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
            ok = false;
            break;
          }
          code = code * 10 + (c - '0');
        }
      }
      out.push_back(ok && code > 0 && code < 128 ? static_cast<char>(code)
                                                 : '?');
    } else {
      out.append(text.substr(i, semi - i + 1));
    }
    i = semi;
  }
  return out;
}

std::string EscapeXml(std::string_view text, bool attribute) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        if (attribute) {
          out += "&quot;";
        } else {
          out.push_back(c);
        }
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Recursive-descent XML scanner building the tree.
class XmlParser {
 public:
  XmlParser(std::string_view text, const XmlParseOptions& options, Tree* tree)
      : text_(text), options_(options), tree_(tree) {}

  Status Parse() {
    // Up-front deadline probe (the stride-based per-element charges may not
    // reach the deadline check on short inputs).
    if (!BudgetCheckNow(options_.budget)) {
      return BudgetStatus(options_.budget);
    }
    SkipMisc();
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Error("expected a root element");
    }
    TREEDIFF_RETURN_IF_ERROR(ParseElement(kInvalidNode));
    SkipMisc();
    if (pos_ != text_.size()) {
      return Error("content after the root element");
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  /// Skips whitespace, comments, PIs, doctype between top-level constructs.
  void SkipMisc() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (text_.substr(pos_).substr(0, 4) == "<!--") {
        const size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? text_.size() : end + 3;
        continue;
      }
      if (text_.substr(pos_).substr(0, 2) == "<?" ||
          text_.substr(pos_).substr(0, 2) == "<!") {
        const size_t end = text_.find('>', pos_);
        pos_ = end == std::string_view::npos ? text_.size() : end + 1;
        continue;
      }
      return;
    }
  }

  Status ParseName(std::string* out) {
    if (pos_ >= text_.size() || !IsNameStart(text_[pos_])) {
      return Error("expected a name");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    *out = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status ParseAttributes(NodeId element) {
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated start tag");
      if (text_[pos_] == '>' || text_[pos_] == '/') return Status::Ok();
      std::string name;
      TREEDIFF_RETURN_IF_ERROR(ParseName(&name));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        return Error("expected '=' after attribute name");
      }
      ++pos_;
      SkipSpace();
      if (pos_ >= text_.size() ||
          (text_[pos_] != '"' && text_[pos_] != '\'')) {
        return Error("expected a quoted attribute value");
      }
      const char quote = text_[pos_++];
      const size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ >= text_.size()) return Error("unterminated attribute value");
      if (options_.keep_attributes) {
        tree_->AddChild(element, "@" + name,
                        DecodeXmlEntities(text_.substr(start, pos_ - start)));
      }
      ++pos_;
    }
  }

  void EmitText(NodeId element, std::string_view raw) {
    std::string decoded = DecodeXmlEntities(raw);
    if (IsBlank(decoded)) return;
    if (options_.split_sentences) {
      for (auto& sentence : SplitSentences(decoded)) {
        tree_->AddChild(element, kTextLabel, std::move(sentence));
      }
    } else {
      tree_->AddChild(element, kTextLabel, CollapseWhitespace(decoded));
    }
  }

  Status ParseElement(NodeId parent) {
    // At '<'. Depth is checked before recursing: the scanner itself is
    // recursive, so unbounded nesting would exhaust the call stack.
    if (depth_ >= options_.max_depth) {
      return Status::ResourceExhausted(
          "element nesting exceeds max_depth (" +
          std::to_string(options_.max_depth) + ") at offset " +
          std::to_string(pos_));
    }
    ++depth_;
    Status st = ParseElementBody(parent);
    --depth_;
    return st;
  }

  Status ParseElementBody(NodeId parent) {
    if (!BudgetChargeNodes(options_.budget)) {
      return BudgetStatus(options_.budget);
    }
    ++pos_;
    std::string name;
    TREEDIFF_RETURN_IF_ERROR(ParseName(&name));
    NodeId element = parent == kInvalidNode
                         ? tree_->AddRoot(name)
                         : tree_->AddChild(parent, name);
    TREEDIFF_RETURN_IF_ERROR(ParseAttributes(element));
    if (text_[pos_] == '/') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] != '>') {
        return Error("malformed self-closing tag");
      }
      ++pos_;
      return Status::Ok();
    }
    ++pos_;  // '>'.

    // Content loop.
    size_t text_start = pos_;
    for (;;) {
      const size_t lt = text_.find('<', pos_);
      if (lt == std::string_view::npos) {
        return Error("unterminated element <" + name + ">");
      }
      EmitText(element, text_.substr(text_start, lt - text_start));
      pos_ = lt;
      if (text_.substr(pos_).substr(0, 4) == "<!--") {
        const size_t end = text_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return Error("unterminated comment");
        pos_ = end + 3;
        text_start = pos_;
        continue;
      }
      if (text_.substr(pos_).substr(0, 9) == "<![CDATA[") {
        const size_t end = text_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        // CDATA content is literal text (no entity decoding).
        std::string_view cdata = text_.substr(pos_ + 9, end - pos_ - 9);
        if (!IsBlank(cdata)) {
          tree_->AddChild(element, kTextLabel, CollapseWhitespace(cdata));
        }
        pos_ = end + 3;
        text_start = pos_;
        continue;
      }
      if (text_.substr(pos_).substr(0, 2) == "<?") {
        const size_t end = text_.find("?>", pos_);
        if (end == std::string_view::npos) return Error("unterminated PI");
        pos_ = end + 2;
        text_start = pos_;
        continue;
      }
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        pos_ += 2;
        std::string closing;
        TREEDIFF_RETURN_IF_ERROR(ParseName(&closing));
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Error("malformed end tag");
        }
        ++pos_;
        if (closing != name) {
          return Error("mismatched end tag </" + closing + "> for <" + name +
                       ">");
        }
        return Status::Ok();
      }
      TREEDIFF_RETURN_IF_ERROR(ParseElement(element));
      text_start = pos_;
    }
  }

  std::string_view text_;
  const XmlParseOptions& options_;
  Tree* tree_;
  size_t pos_ = 0;
  int depth_ = 0;
};

bool IsAttributeLabel(const std::string& name) {
  return !name.empty() && name[0] == '@';
}

void RenderXmlRec(const Tree& tree, NodeId x, int depth, std::string* out) {
  const std::string& name = tree.label_name(x);
  if (name == kTextLabel) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append(EscapeXml(tree.value(x), false));
    out->push_back('\n');
    return;
  }
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->push_back('<');
  out->append(name);
  std::vector<NodeId> content;
  for (NodeId c : tree.children(x)) {
    if (IsAttributeLabel(tree.label_name(c))) {
      out->push_back(' ');
      out->append(tree.label_name(c).substr(1));
      out->append("=\"");
      out->append(EscapeXml(tree.value(c), true));
      out->push_back('"');
    } else {
      content.push_back(c);
    }
  }
  if (content.empty() && tree.value(x).empty()) {
    out->append("/>\n");
    return;
  }
  out->append(">\n");
  for (NodeId c : content) RenderXmlRec(tree, c, depth + 1, out);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("</");
  out->append(name);
  out->append(">\n");
}

void RenderXmlMarkupRec(const DeltaTree& dt, const LabelTable& labels,
                        int index, int depth, std::string* out) {
  const DeltaNode& n = dt.node(index);
  const std::string& name = labels.Name(n.label);

  const char* status = nullptr;
  switch (n.annotation) {
    case DeltaAnnotation::kInserted:
      status = "inserted";
      break;
    case DeltaAnnotation::kDeleted:
      status = "deleted";
      break;
    case DeltaAnnotation::kMoved:
      status = "moved-from";
      break;
    case DeltaAnnotation::kMoveMarker:
      status = "moved-to";
      break;
    case DeltaAnnotation::kUpdated:
      status = "updated";
      break;
    case DeltaAnnotation::kIdentical:
      break;
  }

  if (IsAttributeLabel(name)) {
    // A changed attribute, emitted as an explicit element.
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append("<td:attr td:name=\"" + name.substr(1) + "\"");
    if (status != nullptr) {
      out->append(" td:status=\"");
      out->append(status);
      out->push_back('"');
    }
    if (n.value_updated) {
      out->append(" td:old-value=\"" + EscapeXml(n.old_value, true) + "\"");
    }
    out->push_back('>');
    out->append(EscapeXml(n.value, false));
    out->append("</td:attr>\n");
    return;
  }

  if (name == kTextLabel) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    if (status != nullptr) {
      out->append("<td:text td:status=\"");
      out->append(status);
      out->push_back('"');
      if (n.move_id >= 0) {
        out->append(" td:move=\"" + std::to_string(n.move_id) + "\"");
      }
      if (n.value_updated) {
        out->append(" td:old-value=\"" + EscapeXml(n.old_value, true) + "\"");
      }
      out->push_back('>');
      out->append(EscapeXml(n.value, false));
      out->append("</td:text>\n");
    } else {
      out->append(EscapeXml(n.value, false));
      out->push_back('\n');
    }
    return;
  }

  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->push_back('<');
  out->append(name);
  if (status != nullptr) {
    out->append(" td:status=\"");
    out->append(status);
    out->push_back('"');
    if (n.move_id >= 0) {
      out->append(" td:move=\"" + std::to_string(n.move_id) + "\"");
    }
  }
  if (n.value_updated) {
    out->append(" td:old-value=\"" + EscapeXml(n.old_value, true) + "\"");
  }
  // Unchanged attribute leaves render inline; changed ones become explicit
  // <td:attr> elements in the content (XML cannot annotate an attribute
  // with another attribute).
  std::vector<int> content;
  for (int c : n.children) {
    const DeltaNode& child = dt.node(c);
    const std::string& child_name = labels.Name(child.label);
    if (IsAttributeLabel(child_name) &&
        child.annotation == DeltaAnnotation::kIdentical &&
        !child.value_updated) {
      out->push_back(' ');
      out->append(child_name.substr(1));
      out->append("=\"" + EscapeXml(child.value, true) + "\"");
    } else {
      content.push_back(c);
    }
  }
  if (content.empty()) {
    out->append("/>\n");
    return;
  }
  out->append(">\n");
  for (int c : content) RenderXmlMarkupRec(dt, labels, c, depth + 1, out);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("</" + name + ">\n");
}

}  // namespace

StatusOr<Tree> ParseXml(std::string_view text,
                        std::shared_ptr<LabelTable> labels,
                        const XmlParseOptions& options) {
  Tree tree(std::move(labels));
  XmlParser parser(text, options, &tree);
  Status st = parser.Parse();
  if (!st.ok()) return st;
  return tree;
}

std::string RenderXml(const Tree& tree) {
  if (tree.root() == kInvalidNode) return "";
  std::string out;
  RenderXmlRec(tree, tree.root(), 0, &out);
  return out;
}

std::string RenderXmlMarkup(const DeltaTree& delta,
                            const LabelTable& labels) {
  if (delta.empty()) return "";
  std::string out =
      "<!-- treediff: td:status marks inserted/deleted/moved/updated nodes; "
      "tombstones show old positions -->\n";
  RenderXmlMarkupRec(delta, labels, delta.root(), 0, &out);
  return out;
}

}  // namespace treediff

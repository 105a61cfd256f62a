// tdiff — the general-purpose change detector: diff two hierarchical files
// of any supported format and choose how to view the delta.
//
// Usage:
//   tdiff [options] old-file new-file
//
// Options:
//   --format=auto|latex|html|xml|markdown|sexpr   input format (auto by
//                                        extension, falling back to sexpr)
//   --output=markup|script|report|delta|stats   what to print (default:
//                                        markup; "script" prints the wire
//                                        format that tdiff --apply accepts)
//   --f=<0..1>      leaf match threshold (Matching Criterion 1, default 0.5)
//   --t=<0.5..1>    internal match threshold (Criterion 2, default 0.6)
//   --k=<n>         A(k) fallback window (0 = exhaustive)
//   --slow-match    use Algorithm Match instead of FastMatch
//   --complete      enable the context-completion pass (data-bearing XML)
//
// Exit status: 0 = identical, 1 = differences found, 2 = error (like diff).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/delta_query.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "doc/html_parser.h"
#include "doc/latex_parser.h"
#include "doc/markdown_parser.h"
#include "doc/markup.h"
#include "doc/xml.h"
#include "tree/builder.h"

namespace {

using namespace treediff;

enum class Format { kAuto, kLatex, kHtml, kXml, kMarkdown, kSexpr };

Format FormatByExtension(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  if (ends_with(".tex") || ends_with(".latex")) return Format::kLatex;
  if (ends_with(".html") || ends_with(".htm")) return Format::kHtml;
  if (ends_with(".xml") || ends_with(".svg")) return Format::kXml;
  if (ends_with(".md") || ends_with(".markdown")) return Format::kMarkdown;
  return Format::kSexpr;
}

StatusOr<Tree> ParseAs(Format format, const std::string& text,
                       std::shared_ptr<LabelTable> labels) {
  switch (format) {
    case Format::kLatex:
      return ParseLatex(text, std::move(labels));
    case Format::kHtml:
      return ParseHtml(text, std::move(labels));
    case Format::kXml: {
      XmlParseOptions options;
      options.split_sentences = true;
      return ParseXml(text, std::move(labels), options);
    }
    case Format::kMarkdown:
      return ParseMarkdown(text, std::move(labels));
    case Format::kSexpr:
    case Format::kAuto:
      return ParseSexpr(text, std::move(labels));
  }
  return Status::Internal("unreachable");
}

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Format format = Format::kAuto;
  std::string output = "markup";
  DiffOptions options;
  const char* old_path = nullptr;
  const char* new_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--format=", 9) == 0) {
      const char* f = arg + 9;
      if (std::strcmp(f, "auto") == 0) {
        format = Format::kAuto;
      } else if (std::strcmp(f, "latex") == 0) {
        format = Format::kLatex;
      } else if (std::strcmp(f, "html") == 0) {
        format = Format::kHtml;
      } else if (std::strcmp(f, "xml") == 0) {
        format = Format::kXml;
      } else if (std::strcmp(f, "markdown") == 0 ||
                 std::strcmp(f, "md") == 0) {
        format = Format::kMarkdown;
      } else if (std::strcmp(f, "sexpr") == 0) {
        format = Format::kSexpr;
      } else {
        std::fprintf(stderr, "tdiff: unknown format '%s'\n", f);
        return 2;
      }
    } else if (std::strncmp(arg, "--output=", 9) == 0) {
      output = arg + 9;
    } else if (std::strncmp(arg, "--f=", 4) == 0) {
      options.leaf_threshold_f = std::atof(arg + 4);
    } else if (std::strncmp(arg, "--t=", 4) == 0) {
      options.internal_threshold_t = std::atof(arg + 4);
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      options.fallback_limit_k = std::atoi(arg + 4);
    } else if (std::strcmp(arg, "--slow-match") == 0) {
      options.use_fast_match = false;
    } else if (std::strcmp(arg, "--complete") == 0) {
      options.complete_context = true;
    } else if (old_path == nullptr) {
      old_path = arg;
    } else if (new_path == nullptr) {
      new_path = arg;
    } else {
      std::fprintf(stderr, "tdiff: unexpected argument '%s'\n", arg);
      return 2;
    }
  }
  if (old_path == nullptr || new_path == nullptr) {
    std::fprintf(stderr,
                 "usage: tdiff [--format=...] [--output=markup|script|"
                 "report|delta|stats] old new\n");
    return 2;
  }

  std::string old_text, new_text;
  if (!ReadFile(old_path, &old_text)) {
    std::fprintf(stderr, "tdiff: cannot read %s\n", old_path);
    return 2;
  }
  if (!ReadFile(new_path, &new_text)) {
    std::fprintf(stderr, "tdiff: cannot read %s\n", new_path);
    return 2;
  }

  Format old_format =
      format == Format::kAuto ? FormatByExtension(old_path) : format;
  Format new_format =
      format == Format::kAuto ? FormatByExtension(new_path) : format;

  auto labels = std::make_shared<LabelTable>();
  auto t1 = ParseAs(old_format, old_text, labels);
  if (!t1.ok()) {
    std::fprintf(stderr, "tdiff: %s: %s\n", old_path,
                 t1.status().ToString().c_str());
    return 2;
  }
  auto t2 = ParseAs(new_format, new_text, labels);
  if (!t2.ok()) {
    std::fprintf(stderr, "tdiff: %s: %s\n", new_path,
                 t2.status().ToString().c_str());
    return 2;
  }

  auto diff = DiffTrees(*t1, *t2, options);
  if (!diff.ok()) {
    std::fprintf(stderr, "tdiff: %s\n", diff.status().ToString().c_str());
    return 2;
  }

  auto delta = BuildDeltaTree(*t1, *t2, *diff);
  if (!delta.ok()) {
    std::fprintf(stderr, "tdiff: %s\n", delta.status().ToString().c_str());
    return 2;
  }

  if (output == "script") {
    std::fputs(FormatEditScript(diff->script, *labels).c_str(), stdout);
  } else if (output == "report") {
    std::fputs(RenderChangeReport(*delta, *labels).c_str(), stdout);
  } else if (output == "delta") {
    std::printf("%s\n", delta->ToDebugString(*labels).c_str());
  } else if (output == "stats") {
    const EditScript& s = diff->script;
    const DiffReport& r = diff->report;
    std::printf(
        "nodes: %zu -> %zu\nmatched pairs: %zu\n"
        "inserts: %zu\ndeletes: %zu\nupdates: %zu\nmoves: %zu "
        "(%zu intra-parent, %zu inter-parent)\n"
        "script cost: %.2f\nunweighted distance d: %zu\n"
        "weighted distance e: %zu\ncompare calls: %zu\npartner checks: %zu\n"
        "match time: %.3f ms\nscript time: %.3f ms\n",
        t1->size(), t2->size(), diff->matching.size(), s.num_inserts(),
        s.num_deletes(), s.num_updates(), s.num_moves(), r.intra_parent_moves,
        r.inter_parent_moves, s.TotalCost(), s.size(),
        r.weighted_edit_distance, r.compare_calls, r.partner_checks,
        r.match_seconds * 1e3, r.script_seconds * 1e3);
  } else if (output == "markup") {
    switch (new_format) {
      case Format::kLatex:
        std::fputs(RenderMarkup(*delta, *labels, MarkupFormat::kLatex).c_str(),
                   stdout);
        break;
      case Format::kHtml:
        std::fputs(RenderMarkup(*delta, *labels, MarkupFormat::kHtml).c_str(),
                   stdout);
        break;
      case Format::kXml:
        std::fputs(RenderXmlMarkup(*delta, *labels).c_str(), stdout);
        break;
      case Format::kMarkdown:
        std::fputs(
            RenderMarkup(*delta, *labels, MarkupFormat::kMarkdown).c_str(),
            stdout);
        break;
      default:
        std::fputs(RenderMarkup(*delta, *labels, MarkupFormat::kText).c_str(),
                   stdout);
        break;
    }
  } else {
    std::fprintf(stderr, "tdiff: unknown output '%s'\n", output.c_str());
    return 2;
  }

  return diff->script.empty() ? 0 : 1;
}

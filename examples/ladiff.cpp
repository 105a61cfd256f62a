// The LaDiff program (Section 7): compares two versions of a LaTeX document
// and writes the new version with the changes marked per Table 2.
//
// Usage:
//   ladiff [--format=latex|html|text] [--t=0.6] [--f=0.5] old.tex new.tex
//   ladiff --demo            # runs on the paper's Appendix A documents
//
// With --demo (or no arguments) the embedded Figures 14/15 documents are
// used, regenerating the Figure 16 sample run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "doc/appendix_a_data.h"
#include "doc/ladiff.h"

namespace {

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
  using namespace treediff;

  LaDiffOptions options;
  std::string old_text, new_text;
  bool demo = argc <= 1;
  const char* old_path = nullptr;
  const char* new_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--demo") == 0) {
      demo = true;
    } else if (std::strncmp(arg, "--format=", 9) == 0) {
      const char* fmt = arg + 9;
      if (std::strcmp(fmt, "latex") == 0) {
        options.format = MarkupFormat::kLatex;
      } else if (std::strcmp(fmt, "html") == 0) {
        options.format = MarkupFormat::kHtml;
      } else if (std::strcmp(fmt, "text") == 0) {
        options.format = MarkupFormat::kText;
      } else {
        std::fprintf(stderr, "unknown format '%s'\n", fmt);
        return 2;
      }
    } else if (std::strncmp(arg, "--t=", 4) == 0) {
      options.diff.internal_threshold_t = std::atof(arg + 4);
    } else if (std::strncmp(arg, "--f=", 4) == 0) {
      options.diff.leaf_threshold_f = std::atof(arg + 4);
    } else if (old_path == nullptr) {
      old_path = arg;
    } else if (new_path == nullptr) {
      new_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg);
      return 2;
    }
  }

  if (demo || old_path == nullptr || new_path == nullptr) {
    old_text = kAppendixAOldDocument;
    new_text = kAppendixANewDocument;
    std::fprintf(stderr,
                 "[ladiff] running on the embedded Appendix A documents "
                 "(Figures 14-15 of the paper)\n");
  } else {
    if (!ReadFile(old_path, &old_text)) {
      std::fprintf(stderr, "cannot read %s\n", old_path);
      return 1;
    }
    if (!ReadFile(new_path, &new_text)) {
      std::fprintf(stderr, "cannot read %s\n", new_path);
      return 1;
    }
  }

  StatusOr<LaDiffResult> result =
      DiffLatexDocuments(old_text, new_text, options);
  if (!result.ok()) {
    std::fprintf(stderr, "ladiff failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::fputs(result->markup.c_str(), stdout);
  const EditScript& script = result->diff.script;
  std::fprintf(stderr,
               "[ladiff] %zu inserts, %zu deletes, %zu updates, %zu moves "
               "(cost %.2f; %zu leaf comparisons)\n",
               script.num_inserts(), script.num_deletes(),
               script.num_updates(), script.num_moves(), script.TotalCost(),
               result->diff.report.compare_calls);
  return 0;
}

// The web-document scenario from the paper's introduction: a user revisits
// an HTML page and wants the changes highlighted — "a paragraph that has
// moved could be marked with a tombstone in its old position and be
// highlighted in its new position."
//
// Usage:
//   htmldiff old.html new.html > marked.html
//   htmldiff --demo             # built-in example pages

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "doc/ladiff.h"

namespace {

constexpr const char* kDemoOld = R"HTML(
<html><head><title>Movie Night</title></head><body>
<h1>This Week's Screenings</h1>
<p>Monday brings a classic noir double bill. Tickets are five dollars.
Doors open at seven.</p>
<p>Wednesday is documentary night. We are showing a film about deep sea
creatures. Bring a friend for free.</p>
<h1>Membership</h1>
<p>Members get free popcorn. Annual membership costs twenty dollars.</p>
<ul>
<li>Students get a half price discount.</li>
<li>Seniors enter free on Sundays.</li>
</ul>
</body></html>
)HTML";

constexpr const char* kDemoNew = R"HTML(
<html><head><title>Movie Night</title></head><body>
<h1>This Week's Screenings</h1>
<p>Monday brings a classic noir double bill. Tickets are six dollars.
Doors open at seven.</p>
<h1>Membership</h1>
<p>Members get free popcorn. Annual membership costs twenty dollars.
Memberships make great gifts.</p>
<ul>
<li>Students get a half price discount.</li>
<li>Seniors enter free on Sundays.</li>
</ul>
<p>Wednesday is documentary night. We are showing a film about deep sea
creatures. Bring a friend for free.</p>
</body></html>
)HTML";

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

  std::string old_text, new_text;
  if (argc >= 3 && std::strcmp(argv[1], "--demo") != 0) {
    if (!ReadFile(argv[1], &old_text) || !ReadFile(argv[2], &new_text)) {
      std::fprintf(stderr, "cannot read input files\n");
      return 1;
    }
  } else {
    old_text = kDemoOld;
    new_text = kDemoNew;
    std::fprintf(stderr, "[htmldiff] using the built-in demo pages\n");
  }

  LaDiffOptions options;
  options.format = MarkupFormat::kHtml;
  StatusOr<LaDiffResult> result =
      DiffHtmlDocuments(old_text, new_text, options);
  if (!result.ok()) {
    std::fprintf(stderr, "htmldiff failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::fputs(result->markup.c_str(), stdout);
  const EditScript& script = result->diff.script;
  std::fprintf(stderr,
               "[htmldiff] %zu inserts, %zu deletes, %zu updates, %zu moves\n",
               script.num_inserts(), script.num_deletes(),
               script.num_updates(), script.num_moves());
  return 0;
}

// Generic XML change detection: diff two XML documents and emit the new
// version annotated with td:status attributes, plus a browsable change
// report — the Section 9 SGML/XML direction.
//
// Usage:
//   xmldiff old.xml new.xml          # annotated XML on stdout
//   xmldiff --report old.xml new.xml # change report instead
//   xmldiff --demo                   # built-in product-catalog example

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/delta_query.h"
#include "core/diff.h"
#include "doc/xml.h"

namespace {

constexpr const char* kDemoOld = R"XML(
<catalog>
  <product sku="100"><name>Espresso machine</name><price>320</price>
    <stock>12</stock></product>
  <product sku="101"><name>Grinder</name><price>90</price>
    <stock>40</stock></product>
  <product sku="102"><name>Kettle</name><price>35</price>
    <stock>7</stock></product>
  <notes>Prices include tax. Shipping is extra.</notes>
</catalog>
)XML";

constexpr const char* kDemoNew = R"XML(
<catalog>
  <product sku="101"><name>Grinder</name><price>95</price>
    <stock>38</stock></product>
  <product sku="100"><name>Espresso machine</name><price>320</price>
    <stock>10</stock></product>
  <product sku="103"><name>Milk frother</name><price>25</price>
    <stock>60</stock></product>
  <notes>Prices include tax. Shipping is extra.</notes>
</catalog>
)XML";

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

  bool report = false;
  std::string old_text, new_text;
  const char* old_path = nullptr;
  const char* new_path = nullptr;
  bool demo = argc <= 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (old_path == nullptr) {
      old_path = argv[i];
    } else {
      new_path = argv[i];
    }
  }
  if (demo || old_path == nullptr || new_path == nullptr) {
    old_text = kDemoOld;
    new_text = kDemoNew;
    std::fprintf(stderr, "[xmldiff] using the built-in demo catalog\n");
  } else if (!ReadFile(old_path, &old_text) ||
             !ReadFile(new_path, &new_text)) {
    std::fprintf(stderr, "cannot read input files\n");
    return 1;
  }

  auto labels = std::make_shared<LabelTable>();
  XmlParseOptions parse_options;
  parse_options.split_sentences = true;
  auto t1 = ParseXml(old_text, labels, parse_options);
  if (!t1.ok()) {
    std::fprintf(stderr, "old: %s\n", t1.status().ToString().c_str());
    return 1;
  }
  auto t2 = ParseXml(new_text, labels, parse_options);
  if (!t2.ok()) {
    std::fprintf(stderr, "new: %s\n", t2.status().ToString().c_str());
    return 1;
  }

  DiffOptions diff_options;
  // Data-bearing XML: short values never pass the leaf criterion, so let
  // the context-completion pass turn residual delete+insert pairs into
  // updates, and relax the internal threshold for small elements.
  diff_options.complete_context = true;
  diff_options.internal_threshold_t = 0.5;
  auto diff = DiffTrees(*t1, *t2, diff_options);
  if (!diff.ok()) {
    std::fprintf(stderr, "diff: %s\n", diff.status().ToString().c_str());
    return 1;
  }
  auto delta = BuildDeltaTree(*t1, *t2, *diff);
  if (!delta.ok()) {
    std::fprintf(stderr, "delta: %s\n", delta.status().ToString().c_str());
    return 1;
  }

  if (report) {
    std::fputs(RenderChangeReport(*delta, *labels).c_str(), stdout);
  } else {
    std::fputs(RenderXmlMarkup(*delta, *labels).c_str(), stdout);
  }
  std::fprintf(stderr,
               "[xmldiff] %zu inserts, %zu deletes, %zu updates, %zu moves "
               "(cost %.2f)\n",
               diff->script.num_inserts(), diff->script.num_deletes(),
               diff->script.num_updates(), diff->script.num_moves(),
               diff->script.TotalCost());
  return 0;
}

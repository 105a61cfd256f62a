#ifndef TREEDIFF_TESTSUPPORT_REFERENCE_H_
#define TREEDIFF_TESTSUPPORT_REFERENCE_H_

#include <string_view>

#include "tree/tree.h"
#include "zs/zhang_shasha.h"

namespace treediff {

/// Second, deliberately naive implementations that tests check the
/// production algorithms against. They live in the test-support library
/// (treediff_testsupport), so no shipped binary links them.

/// An independent exponential-time (memoized) forest edit distance used to
/// validate the Zhang-Shasha implementation on tiny trees (<= ~12 nodes).
/// Both trees must be non-empty and share a LabelTable.
double BruteForceEditDistance(const Tree& t1, const Tree& t2,
                              const ZsOptions& options = {});

/// Compares two raw strings with the word-LCS metric: the arithmetic of
/// WordLcsComparator, recomputed with a plain LCS over the word lists and
/// without trees or caching.
double WordLcsDistance(std::string_view a, std::string_view b,
                       bool normalize_words = false);

}  // namespace treediff

#endif  // TREEDIFF_TESTSUPPORT_REFERENCE_H_

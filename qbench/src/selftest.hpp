#ifndef QBENCH_SELFTEST_HPP
#define QBENCH_SELFTEST_HPP

namespace qbench {

/** Run the helper self-tests; true when all pass. Prints a summary
 *  when `verbose` or on failure. */
bool runSelfTests(bool verbose);

} // namespace qbench

#endif // QBENCH_SELFTEST_HPP

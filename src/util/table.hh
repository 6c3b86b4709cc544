/**
 * @file
 * Plain-text table rendering and CSV export for benchmark harnesses.
 * Every bench binary prints paper-style rows through TablePrinter so the
 * reproduced tables/figures are easy to diff against the paper.
 */

#ifndef APOLLO_UTIL_TABLE_HH
#define APOLLO_UTIL_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace apollo {

/** Accumulates rows of string cells and renders an aligned table. */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Format helpers for numeric cells. */
    static std::string num(double v, int precision = 3);
    static std::string percent(double fraction, int precision = 2);
    static std::string integer(long long v);

    /** Render the aligned table to @p os. */
    void render(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace apollo

#endif // APOLLO_UTIL_TABLE_HH

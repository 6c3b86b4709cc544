#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/logging.hh"

namespace apollo {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    APOLLO_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    APOLLO_REQUIRE(cells.size() == headers_.size(),
                   "row arity ", cells.size(), " != header arity ",
                   headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::percent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
TablePrinter::integer(long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    return buf;
}

void
TablePrinter::render(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        os << "| ";
        for (size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            os << std::string(widths[c] - row[c].size(), ' ');
            os << (c + 1 < row.size() ? " | " : " |\n");
        }
    };

    emit_row(headers_);
    os << "|";
    for (size_t c = 0; c < widths.size(); ++c)
        os << std::string(widths[c] + 2, '-')
           << (c + 1 < widths.size() ? "|" : "|\n");
    for (const auto &row : rows_)
        emit_row(row);
}

} // namespace apollo

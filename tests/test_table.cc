/**
 * @file
 * Unit tests for the table/CSV formatter.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/table.hh"

#include "temp_file.hh"

using namespace hetsim;
using hetsim::test::TempFile;

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
    EXPECT_EQ(formatDouble(-0.5, 3), "-0.500");
}

TEST(TablePrinter, RowCount)
{
    TablePrinter t("t", {"a", "b"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"x", "1"});
    t.addRow("y", {2.0});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TablePrinter, NumericRowFormatting)
{
    TablePrinter t("t", {"label", "v1", "v2"});
    t.addRow("row", {1.5, 2.25}, 2);
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(TablePrinter, CsvRoundTrip)
{
    TablePrinter t("csv test", {"name", "value"});
    t.addRow({"alpha", "1.0"});
    t.addRow({"beta", "2.5"});
    const TempFile file("test_table.csv");
    const std::string &path = file.path();
    ASSERT_TRUE(t.writeCsv(path));

    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,value");
    std::getline(in, line);
    EXPECT_EQ(line, "alpha,1.0");
    std::getline(in, line);
    EXPECT_EQ(line, "beta,2.5");
}

TEST(CsvQuote, PlainCellsPassThrough)
{
    EXPECT_EQ(csvQuote("alpha"), "alpha");
    EXPECT_EQ(csvQuote(""), "");
    EXPECT_EQ(csvQuote("1.5e-3"), "1.5e-3");
}

TEST(CsvQuote, DelimiterAndNewlineCellsAreQuoted)
{
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("line1\nline2"), "\"line1\nline2\"");
    EXPECT_EQ(csvQuote("cr\rlf"), "\"cr\rlf\"");
}

TEST(CsvQuote, EmbeddedQuotesAreDoubled)
{
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("\""), "\"\"\"\"");
}

TEST(TablePrinter, CsvQuotesCellsWithDelimiters)
{
    TablePrinter t("csv quoting", {"name", "detail"});
    t.addRow({"ok", "latency=4, energy=2"});
    t.addRow({"quoted", "the \"fast\" path"});
    const TempFile file("test_table_quote.csv");
    const std::string &path = file.path();
    ASSERT_TRUE(t.writeCsv(path));

    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,detail");
    std::getline(in, line);
    EXPECT_EQ(line, "ok,\"latency=4, energy=2\"");
    std::getline(in, line);
    EXPECT_EQ(line, "quoted,\"the \"\"fast\"\" path\"");
}

TEST(TablePrinter, CsvBadPathFails)
{
    TablePrinter t("t", {"a"});
    t.addRow({"x"});
    EXPECT_FALSE(t.writeCsv("/nonexistent_dir/zzz/file.csv"));
}

TEST(TablePrinterDeath, MismatchedRowPanics)
{
    TablePrinter t("t", {"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

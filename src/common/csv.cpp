#include "common/csv.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace gnrfet::csv {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) index_[columns_[i]] = i;
}

void Table::add_row(const std::vector<double>& row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("csv::Table::add_row: column count mismatch");
  }
  rows_.push_back(row);
}

double Table::at(size_t row, const std::string& column) const {
  const auto it = index_.find(column);
  if (it == index_.end()) {
    throw std::out_of_range("csv::Table: no column named " + column);
  }
  return rows_.at(row).at(it->second);
}

void Table::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

std::string Table::meta(const std::string& key, const std::string& fallback) const {
  const auto it = meta_.find(key);
  return it == meta_.end() ? fallback : it->second;
}

void Table::save(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv: cannot open for write: " + path);
  // max_digits10 (17) makes the decimal text round-trip every finite double
  // bit-for-bit through load(); anything less (the old precision(12)) made a
  // table served from the disk cache differ bitwise from the freshly
  // generated one.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& [k, v] : meta_) out << "# " << k << " = " << v << "\n";
  for (size_t i = 0; i < columns_.size(); ++i) {
    out << columns_[i] << (i + 1 == columns_.size() ? "\n" : ",");
  }
  for (const auto& r : rows_) {
    for (size_t i = 0; i < r.size(); ++i) {
      out << r[i] << (i + 1 == r.size() ? "\n" : ",");
    }
  }
  if (!out.good()) throw std::runtime_error("csv: write failed: " + path);
}

Table Table::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open for read: " + path);
  std::string line;
  size_t line_no = 0;
  std::map<std::string, std::string> meta;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    ++line_no;
    line = strings::trim(line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      const auto eq = line.find('=');
      if (eq != std::string::npos) {
        meta[strings::trim(line.substr(1, eq - 1))] = strings::trim(line.substr(eq + 1));
      }
      continue;
    }
    for (auto& c : strings::split(line, ',')) header.push_back(strings::trim(c));
    break;
  }
  if (header.empty()) throw std::runtime_error("csv: missing header: " + path);
  Table t(header);
  for (const auto& [k, v] : meta) t.set_meta(k, v);
  while (std::getline(in, line)) {
    ++line_no;
    line = strings::trim(line);
    if (line.empty() || line[0] == '#') continue;
    const std::string where = "csv: " + path + ":" + std::to_string(line_no) + ": ";
    const std::vector<std::string> cells = strings::split(line, ',');
    if (cells.size() != header.size()) {
      throw std::runtime_error(where + std::to_string(cells.size()) + " fields, header has " +
                               std::to_string(header.size()));
    }
    // The whole trimmed cell must be a number, so a corrupt file fails here,
    // naming its line and column, instead of loading a truncated value.
    std::vector<double> row(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::string cell = strings::trim(cells[i]);
      if (!strings::parse_double(cell, row[i])) {
        throw std::runtime_error(where + "field '" + header[i] + "': malformed number '" +
                                 cell + "'");
      }
    }
    t.add_row(row);
  }
  return t;
}

}  // namespace gnrfet::csv

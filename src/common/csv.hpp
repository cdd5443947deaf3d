#pragma once

#include <map>
#include <string>
#include <vector>

/// Minimal CSV table type used for (a) the on-disk device-table cache and
/// (b) the data series every bench writes next to its printed output.
namespace gnrfet::csv {

/// An in-memory rectangular table with named columns.
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> columns);

  /// Append one row; must match the column count.
  void add_row(const std::vector<double>& row);

  size_t num_rows() const { return rows_.size(); }

  /// Value at (row, named column). Throws if the column does not exist.
  double at(size_t row, const std::string& column) const;

  /// Free-form key/value metadata, serialized as "# key = value" comments.
  void set_meta(const std::string& key, const std::string& value);
  std::string meta(const std::string& key, const std::string& fallback = "") const;

  /// Serialize / parse. `save` creates parent directories as needed and
  /// throws std::runtime_error on I/O failure; `load` throws
  /// std::runtime_error if the file is missing or malformed, naming the
  /// path, line and field of a cell that is not wholly a number or of a
  /// row whose field count differs from the header's.
  void save(const std::string& path) const;
  static Table load(const std::string& path);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, size_t> index_;
};

}  // namespace gnrfet::csv

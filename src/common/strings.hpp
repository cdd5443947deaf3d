#pragma once

#include <string>
#include <vector>

/// Small string utilities shared by the CSV layer and the bench printers.
namespace gnrfet::strings {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strip leading/trailing whitespace.
std::string trim(const std::string& s);

/// Parse all of `s` as a double in strtod's grammar (decimal, hex, inf,
/// nan). Returns false on empty input, leading whitespace, trailing
/// characters or overflow; an underflowing value keeps strtod's subnormal
/// (or zero) result, so every double printed at max_digits10 parses back.
bool parse_double(const std::string& s, double& out);

/// FNV-1a 64-bit hash, used to key cached device tables by configuration.
std::string hash_hex(const std::string& payload);

}  // namespace gnrfet::strings

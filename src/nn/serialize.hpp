// Binary serialization for matrices, parameter sets and the scalar stream
// primitives every persisted artifact in the library is built from. Used to
// persist trained models into the artifact cache (and the serving-path
// ModelRegistry) so repeated runs skip retraining.
//
// Stream format conventions, shared by every artifact writer in the repo:
// little-endian host order, length-prefixed strings and vectors, matrices
// as (rows, cols, row-major doubles). Malformed input always throws
// common::SerializationError and leaves the load target untouched.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/param.hpp"

namespace goodones::nn {

// --- scalar stream primitives ----------------------------------------------

void write_u32(std::ostream& out, std::uint32_t v);
void write_u64(std::ostream& out, std::uint64_t v);
void write_f64(std::ostream& out, double v);
/// Length-prefixed (u32) raw bytes; no terminator.
void write_string(std::ostream& out, const std::string& s);
/// Length-prefixed (u64) doubles.
void write_f64_vector(std::ostream& out, const std::vector<double>& v);
/// Length-prefixed (u64) bytes.
void write_u8_vector(std::ostream& out, const std::vector<std::uint8_t>& v);

/// All readers throw common::SerializationError on truncated input.
/// `what` names the field being read for actionable error messages.
std::uint32_t read_u32(std::istream& in, const char* what = "u32");
std::uint64_t read_u64(std::istream& in, const char* what = "u64");
double read_f64(std::istream& in, const char* what = "f64");
std::string read_string(std::istream& in, const char* what = "string");
std::vector<double> read_f64_vector(std::istream& in, const char* what = "f64 vector");
std::vector<std::uint8_t> read_u8_vector(std::istream& in, const char* what = "u8 vector");

/// Reads a u32 and checks it against `expected`; mismatch throws
/// SerializationError naming `what` (magic/version/kind-tag guards).
void expect_u32(std::istream& in, std::uint32_t expected, const char* what);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
/// Chainable: feed the previous call's result as `seed` to checksum a file
/// in pieces. Artifact writers that frame whole blobs (the columnar
/// telemetry segments) append this over everything before the checksum
/// field so truncation and bit rot surface as typed SerializationErrors.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0) noexcept;

// --- matrices and parameter sets --------------------------------------------

/// Writes one matrix (dims + row-major doubles, little-endian host order).
void write_matrix(std::ostream& out, const Matrix& m);

/// Reads one matrix; throws common::SerializationError on malformed input.
Matrix read_matrix(std::istream& in);

/// Writes all parameter values (not gradients) for composite artifacts
/// (forecaster + detector bundles): parameter count, then each value matrix.
void write_parameters(std::ostream& out, const ParamRefs& params);
/// Reads into existing buffers; count and shapes must match exactly.
/// All-or-nothing: throws common::SerializationError on a count, shape or
/// format mismatch and leaves every buffer untouched.
void read_parameters(std::istream& in, const ParamRefs& params);

}  // namespace goodones::nn

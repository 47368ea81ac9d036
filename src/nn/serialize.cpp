#include "nn/serialize.hpp"

#include <array>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"

namespace goodones::nn {

namespace {

using common::SerializationError;

[[noreturn]] void fail_truncated(const char* what) {
  throw SerializationError(std::string("artifact truncated while reading ") + what);
}

/// Caps on length prefixes: a corrupt length field must fail loudly
/// (SerializationError) instead of triggering a multi-gigabyte allocation
/// (std::bad_alloc). 2^26 doubles = 512 MiB per single vector/matrix,
/// far above any artifact this library writes (the largest is the kNN
/// reference set, capped at max_points_per_class rows).
constexpr std::uint64_t kMaxElements = 1ull << 26;

}  // namespace

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_string(std::ostream& out, const std::string& s) {
  write_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_f64_vector(std::ostream& out, const std::vector<double>& v) {
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void write_u8_vector(std::ostream& out, const std::vector<std::uint8_t>& v) {
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size()));
}

std::uint32_t read_u32(std::istream& in, const char* what) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) fail_truncated(what);
  return v;
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) fail_truncated(what);
  return v;
}

double read_f64(std::istream& in, const char* what) {
  double v = 0.0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) fail_truncated(what);
  return v;
}

std::string read_string(std::istream& in, const char* what) {
  const std::uint32_t size = read_u32(in, what);
  // Strings in artifacts are names and labels; a giant length prefix is a
  // corrupt artifact, not a legitimate payload.
  if (size > (1u << 20)) {
    throw SerializationError(std::string("implausible length for ") + what +
                             " (corrupt artifact?)");
  }
  std::string s(size, '\0');
  in.read(s.data(), static_cast<std::streamsize>(size));
  if (!in) fail_truncated(what);
  return s;
}

std::vector<double> read_f64_vector(std::istream& in, const char* what) {
  const std::uint64_t size = read_u64(in, what);
  if (size > kMaxElements) {
    throw SerializationError(std::string("implausible length for ") + what +
                             " (corrupt artifact?)");
  }
  std::vector<double> v(size);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(double)));
  if (!in) fail_truncated(what);
  return v;
}

std::vector<std::uint8_t> read_u8_vector(std::istream& in, const char* what) {
  const std::uint64_t size = read_u64(in, what);
  if (size > kMaxElements) {
    throw SerializationError(std::string("implausible length for ") + what +
                             " (corrupt artifact?)");
  }
  std::vector<std::uint8_t> v(size);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(size));
  if (!in) fail_truncated(what);
  return v;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) noexcept {
  // Table generated once, lazily, from the reflected IEEE 802.3 polynomial.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void expect_u32(std::istream& in, std::uint32_t expected, const char* what) {
  const std::uint32_t got = read_u32(in, what);
  if (got != expected) {
    throw SerializationError(std::string("bad ") + what + ": expected " +
                             std::to_string(expected) + ", got " + std::to_string(got));
  }
}

void write_matrix(std::ostream& out, const Matrix& m) {
  write_u32(out, static_cast<std::uint32_t>(m.rows()));
  write_u32(out, static_cast<std::uint32_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
}

Matrix read_matrix(std::istream& in) {
  const std::uint32_t rows = read_u32(in, "matrix rows");
  const std::uint32_t cols = read_u32(in, "matrix cols");
  if (static_cast<std::uint64_t>(rows) * cols > kMaxElements) {
    throw SerializationError("implausible matrix shape (corrupt artifact?)");
  }
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(double)));
  if (!in) fail_truncated("matrix body");
  return m;
}

void write_parameters(std::ostream& out, const ParamRefs& params) {
  write_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const auto* p : params) write_matrix(out, p->value);
}

void read_parameters(std::istream& in, const ParamRefs& params) {
  const std::uint32_t count = read_u32(in, "parameter count");
  if (count != params.size()) {
    throw SerializationError("parameter count mismatch: artifact has " +
                             std::to_string(count) + ", model expects " +
                             std::to_string(params.size()));
  }
  // Read everything first so a mid-stream failure leaves buffers untouched.
  std::vector<Matrix> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) loaded.push_back(read_matrix(in));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!loaded[i].same_shape(params[i]->value)) {
      throw SerializationError("parameter " + std::to_string(i) + " shape mismatch: artifact " +
                               std::to_string(loaded[i].rows()) + "x" +
                               std::to_string(loaded[i].cols()) + ", model " +
                               std::to_string(params[i]->value.rows()) + "x" +
                               std::to_string(params[i]->value.cols()));
    }
  }
  for (std::uint32_t i = 0; i < count; ++i) params[i]->value = std::move(loaded[i]);
}

}  // namespace goodones::nn

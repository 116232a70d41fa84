#pragma once
// Field lists: the one definition of how a plain record is serialized. A
// record declares, next to itself and in its own namespace (where
// argument-dependent lookup finds it),
//
//   template <artifact::FieldsOf<Record> R>
//   auto fields(R& r) { return std::tie(r.a, r.b, ...); }
//
// in byte order. One list drives the encoder (const R), the decoder and the
// cache keys hashed from it, so a field cannot be written but not read.
// The encoding: double as f64, bool as u8, unsigned integers as u64,
// strings and vectors as a u64 count then the bytes or elements, nested
// records as their own list. Including this header provides std::tie.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "artifact/binary_format.hpp"

namespace sct::artifact {

/// `T` is `U` or `const U`: one fields() overload serves both directions.
template <class T, class U>
concept FieldsOf = std::same_as<std::remove_const_t<T>, U>;

template <class T>
concept HasFields = requires(T& value) { fields(value); };

/// Calls visit(leaf) for every leaf of `value` in list order, recursing
/// through nested lists. Vectors are leaves: the visitor handles the count.
template <class T, class Visit>
void forEachField(T& value, Visit& visit) {
  if constexpr (HasFields<T>) {
    std::apply([&](auto&... member) { (forEachField(member, visit), ...); },
               fields(value));
  } else {
    visit(value);
  }
}

/// Fewest bytes one encoded T occupies: bounds a decoded list count by the
/// bytes left before anything is allocated.
template <class T>
constexpr std::size_t minEncodedBytes() {
  if constexpr (HasFields<T>) {
    using List = decltype(fields(std::declval<T&>()));
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return (std::size_t{0} + ... +
              minEncodedBytes<
                  std::remove_cvref_t<std::tuple_element_t<I, List>>>());
    }(std::make_index_sequence<std::tuple_size_v<List>>{});
  } else {
    return std::same_as<T, bool> ? 1 : 8;
  }
}

/// Feeds every leaf to an SctbWriter or a Hasher (same feeder names).
template <class Sink>
struct FieldWriter {
  Sink& sink;
  void operator()(const std::string& v) { sink.str(v); }
  void operator()(double v) { sink.f64(v); }
  void operator()(bool v) { sink.u8(v ? 1 : 0); }
  template <std::unsigned_integral U>
  void operator()(U v) {
    sink.u64(v);
  }
  template <class T>
  void operator()(const std::vector<T>& v) {
    sink.u64(v.size());
    for (const T& element : v) forEachField(element, *this);
  }
};

/// Inverse of FieldWriter<SctbWriter>. A list count above `maxList` or the
/// bytes left throws FormatError, like any short read.
struct FieldReader {
  SctbReader::Cursor& cursor;
  std::uint64_t maxList = std::numeric_limits<std::uint64_t>::max();

  void operator()(std::string& v) { v = cursor.str(); }
  void operator()(double& v) { v = cursor.f64(); }
  void operator()(bool& v) { v = cursor.boolean(); }
  template <std::unsigned_integral U>
  void operator()(U& v) {
    v = static_cast<U>(cursor.u64());
  }
  template <class T>
  void operator()(std::vector<T>& v) {
    const std::uint64_t count = cursor.u64();
    if (count > maxList || count > cursor.remaining() / minEncodedBytes<T>()) {
      throw FormatError("list count " + std::to_string(count) +
                        " exceeds the payload");
    }
    v.resize(static_cast<std::size_t>(count));
    for (T& element : v) forEachField(element, *this);
  }
};

/// Stage record codec: one section named T::kSection holding T::kSchema (a
/// u32, when T declares one), then fields(value).
template <class T>
void writeRecord(SctbWriter& writer, const T& value) {
  writer.beginSection(T::kSection);
  if constexpr (requires { T::kSchema; }) writer.u32(T::kSchema);
  FieldWriter<SctbWriter> visit{writer};
  forEachField(value, visit);
}

/// Inverse of writeRecord; throws FormatError on a missing section, a
/// schema mismatch, a short read, an oversized list count or trailing bytes.
template <class T>
[[nodiscard]] T readRecord(const SctbReader& reader) {
  SctbReader::Cursor cursor = reader.section(T::kSection);
  if constexpr (requires { T::kSchema; }) {
    if (cursor.u32() != T::kSchema) {
      throw FormatError(std::string(T::kSection) + ": schema mismatch");
    }
  }
  T value;
  FieldReader visit{cursor};
  forEachField(value, visit);
  if (cursor.remaining() != 0) {
    throw FormatError(std::string(T::kSection) + ": trailing bytes");
  }
  return value;
}

}  // namespace sct::artifact

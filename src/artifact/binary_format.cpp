#include "artifact/binary_format.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "artifact/hash.hpp"

namespace sct::artifact {
namespace {

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kTableEntryBytes = kSectionNameBytes + 8 + 8 + 8;

/// Appends `v` little-endian: one block copy on little-endian hosts (the
/// encoders' hot path), a byte loop elsewhere.
template <class U>
void putLittleEndian(std::vector<std::byte>& out, U v) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t at = out.size();
    out.resize(at + sizeof v);
    std::memcpy(out.data() + at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      out.push_back(std::byte((v >> (8 * i)) & 0xFF));
    }
  }
}

void putU32(std::vector<std::byte>& out, std::uint32_t v) {
  putLittleEndian(out, v);
}

void putU64(std::vector<std::byte>& out, std::uint64_t v) {
  putLittleEndian(out, v);
}

std::uint32_t getU32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | std::to_integer<std::uint32_t>(p[i]);
  return v;
}

std::uint64_t getU64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | std::to_integer<std::uint64_t>(p[i]);
  return v;
}

}  // namespace

// ---------------------------------------------------------------- writer --

SctbWriter::Section& SctbWriter::current() {
  if (sections_.empty()) {
    throw FormatError("write before beginSection()");
  }
  return sections_.back();
}

void SctbWriter::beginSection(std::string_view name) {
  if (name.empty() || name.size() > kSectionNameBytes) {
    throw FormatError("section name '" + std::string(name) +
                      "' must be 1..16 bytes");
  }
  for (const Section& s : sections_) {
    if (s.name == name) {
      throw FormatError("duplicate section '" + std::string(name) + "'");
    }
  }
  sections_.push_back(Section{std::string(name), {}});
}

void SctbWriter::u8(std::uint8_t v) { current().data.push_back(std::byte{v}); }

void SctbWriter::u32(std::uint32_t v) { putU32(current().data, v); }

void SctbWriter::u64(std::uint64_t v) { putU64(current().data, v); }

void SctbWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SctbWriter::str(std::string_view s) {
  Section& section = current();
  putU64(section.data, s.size());
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  section.data.insert(section.data.end(), p, p + s.size());
}

void SctbWriter::align8() {
  Section& section = current();
  while (section.data.size() % 8 != 0) section.data.push_back(std::byte{0});
}

void SctbWriter::f64span(std::span<const double> values) {
  u64(values.size());
  align8();
  Section& section = current();
  const auto* p = reinterpret_cast<const std::byte*>(values.data());
  section.data.insert(section.data.end(), p, p + values.size() * sizeof(double));
}

std::vector<std::byte> SctbWriter::finish() const {
  const std::size_t tableBytes = sections_.size() * kTableEntryBytes;
  // Header and table entry sizes are multiples of 8, so the first payload
  // is naturally aligned; later payloads are padded up to the boundary.
  std::size_t offset = kHeaderBytes + tableBytes;
  std::vector<std::size_t> offsets;
  offsets.reserve(sections_.size());
  for (const Section& s : sections_) {
    offset = (offset + 7) & ~std::size_t{7};
    offsets.push_back(offset);
    offset += s.data.size();
  }

  std::vector<std::byte> out;
  out.reserve(offset);
  const auto* magic = reinterpret_cast<const std::byte*>(kMagic);
  out.insert(out.end(), magic, magic + 4);
  putU32(out, schema_version_);
  putU32(out, static_cast<std::uint32_t>(sections_.size()));
  putU32(out, 0);  // reserved
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    for (std::size_t c = 0; c < kSectionNameBytes; ++c) {
      out.push_back(c < s.name.size() ? std::byte(s.name[c]) : std::byte{0});
    }
    putU64(out, offsets[i]);
    putU64(out, s.data.size());
    putU64(out, fnv1a64(s.data));
  }
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    out.resize(offsets[i], std::byte{0});  // alignment padding
    out.insert(out.end(), sections_[i].data.begin(), sections_[i].data.end());
  }
  return out;
}

// ---------------------------------------------------------------- reader --

SctbReader SctbReader::copyOf(std::span<const std::byte> bytes,
                              bool verifyChecksums) {
  SctbReader reader;
  reader.buffer_.resize((bytes.size() + 7) / 8, 0.0);
  std::memcpy(reader.buffer_.data(), bytes.data(), bytes.size());
  reader.size_ = bytes.size();
  reader.parse(verifyChecksums);
  return reader;
}

SctbReader SctbReader::fromBytes(std::span<const std::byte> bytes) {
  return copyOf(bytes, /*verifyChecksums=*/true);
}

SctbReader SctbReader::fromWriter(const SctbWriter& writer) {
  return copyOf(writer.finish(), /*verifyChecksums=*/false);
}

SctbReader SctbReader::fromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw FormatError("cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long tell = std::ftell(file);
  if (tell < 0) {
    std::fclose(file);
    throw FormatError("cannot size " + path);
  }
  const auto size = static_cast<std::size_t>(tell);
  std::rewind(file);

  SctbReader reader;
  reader.buffer_.resize((size + 7) / 8, 0.0);
  // The whole artifact in one read: the warm-start path does no per-entry
  // parsing at all.
  const std::size_t got = std::fread(reader.buffer_.data(), 1, size, file);
  std::fclose(file);
  if (got != size) throw FormatError("short read on " + path);
  reader.size_ = size;
  reader.parse(/*verifyChecksums=*/true);
  return reader;
}

void SctbReader::parse(bool verifyChecksums) {
  if (size_ < kHeaderBytes) throw FormatError("file shorter than header");
  if (std::memcmp(data(), kMagic, 4) != 0) throw FormatError("bad magic");
  schema_version_ = getU32(data() + 4);
  if (schema_version_ != kSchemaVersion) {
    throw FormatError("schema version " + std::to_string(schema_version_) +
                      " != expected " + std::to_string(kSchemaVersion));
  }
  const std::uint32_t count = getU32(data() + 8);
  const std::size_t tableEnd = kHeaderBytes + count * kTableEntryBytes;
  if (tableEnd > size_) throw FormatError("truncated section table");

  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::byte* entry = data() + kHeaderBytes + i * kTableEntryBytes;
    SectionEntry section;
    std::size_t nameLen = 0;
    while (nameLen < kSectionNameBytes &&
           entry[nameLen] != std::byte{0}) {
      ++nameLen;
    }
    section.name.assign(reinterpret_cast<const char*>(entry), nameLen);
    section.offset = getU64(entry + kSectionNameBytes);
    section.size = getU64(entry + kSectionNameBytes + 8);
    const std::uint64_t checksum = getU64(entry + kSectionNameBytes + 16);
    if (section.offset < tableEnd || section.offset > size_ ||
        section.size > size_ - section.offset) {
      throw FormatError("section '" + section.name + "' out of bounds");
    }
    if (verifyChecksums &&
        fnv1a64({data() + section.offset, section.size}) != checksum) {
      throw FormatError("section '" + section.name + "' checksum mismatch");
    }
    sections_.push_back(std::move(section));
  }
}

bool SctbReader::hasSection(std::string_view name) const noexcept {
  for (const SectionEntry& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

SctbReader::Cursor SctbReader::section(std::string_view name) const {
  for (const SectionEntry& s : sections_) {
    if (s.name == name) return Cursor(this, s.offset, s.offset + s.size);
  }
  throw FormatError("missing section '" + std::string(name) + "'");
}

// ---------------------------------------------------------------- cursor --

const std::byte* SctbReader::Cursor::raw() const noexcept {
  return reader_->data() + pos_;
}

void SctbReader::Cursor::need(std::size_t n) const {
  if (end_ - pos_ < n) throw FormatError("read past end of section");
}

std::uint8_t SctbReader::Cursor::u8() {
  need(1);
  const auto v = std::to_integer<std::uint8_t>(*raw());
  ++pos_;
  return v;
}

std::uint32_t SctbReader::Cursor::u32() {
  need(4);
  const std::uint32_t v = getU32(raw());
  pos_ += 4;
  return v;
}

std::uint64_t SctbReader::Cursor::u64() {
  need(8);
  const std::uint64_t v = getU64(raw());
  pos_ += 8;
  return v;
}

double SctbReader::Cursor::f64() { return std::bit_cast<double>(u64()); }

std::string SctbReader::Cursor::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string s(reinterpret_cast<const char*>(raw()), len);
  pos_ += len;
  return s;
}

void SctbReader::Cursor::align8() {
  while (pos_ % 8 != 0) {
    need(1);
    ++pos_;
  }
}

std::span<const double> SctbReader::Cursor::f64span() {
  const std::uint64_t count = u64();
  align8();
  need(count * sizeof(double));
  // pos_ is 8-byte aligned and the backing storage is an array of doubles,
  // so this view aliases real double objects: genuinely zero-copy.
  const auto* p = reinterpret_cast<const double*>(raw());
  pos_ += count * sizeof(double);
  return {p, count};
}

void SctbReader::Cursor::readDoubles(std::span<double> out) {
  const std::span<const double> view = f64span();
  if (view.size() != out.size()) {
    throw FormatError("double block size mismatch");
  }
  std::memcpy(out.data(), view.data(), view.size() * sizeof(double));
}

}  // namespace sct::artifact

#include "corpus/codec.h"

#include <cmath>
#include <cstring>

#include "common/strings.h"
#include "engine/functions.h"
#include "geom/wkb.h"
#include "geom/wkt_reader.h"
#include "geom/wkt_writer.h"

namespace spatter::corpus {

namespace {

// Format: "SPTC" magic, u16 version, then the fields of TestCaseRecord in
// declaration order. All integers little-endian; doubles as IEEE-754 bit
// patterns. Strings and byte blobs are u32 length + payload.
//
// Version 2 appends two u8 fields after the v1 payload — the detecting
// oracle kind and the differential secondary dialect — so v1 records
// remain decodable (their oracle is what v1's canonicalization byte says).
constexpr char kMagic[4] = {'S', 'P', 'T', 'C'};
constexpr uint16_t kVersion = 2;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void PutBlob(std::vector<uint8_t>* out, const std::vector<uint8_t>& b) {
  PutU32(out, static_cast<uint32_t>(b.size()));
  out->insert(out->end(), b.begin(), b.end());
}

/// Bounds-checked sequential reader over the input buffer.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 2; ++i) *v |= uint16_t(data_[pos_++]) << (8 * i);
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= uint32_t(data_[pos_++]) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= uint64_t(data_[pos_++]) << (8 * i);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool String(std::string* s) {
    uint32_t len;
    if (!U32(&len) || pos_ + len > data_.size()) return false;
    s->assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
    pos_ += len;
    return true;
  }
  bool Blob(std::vector<uint8_t>* b) {
    uint32_t len;
    if (!U32(&len) || pos_ + len > data_.size()) return false;
    b->assign(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

Status Truncated() {
  return Status::InvalidArgument("test-case record truncated or malformed");
}

Status NotPlain(const std::string& name) {
  return Status::InvalidArgument("record has table name '" + name +
                                 "', not a plain identifier");
}

// QuerySpec::ToSql pastes the predicate, the pattern and the distance into
// SQL as they are, so a replay runs the statement a campaign ran only when
// each is one the generator draws: a registered predicate by its canonical
// name or `~=`, nine characters of the DE-9IM alphabet under kPattern (none
// otherwise), and a finite distance (`nan` would print as a column name).
Status CheckQuery(const fuzz::QuerySpec& query) {
  if (!IsPlainIdentifier(query.table1)) return NotPlain(query.table1);
  if (!IsPlainIdentifier(query.table2)) return NotPlain(query.table2);
  if (query.predicate != "~=") {
    const engine::FunctionDef* fn = engine::FindFunction(query.predicate);
    if (fn == nullptr || !fn->is_predicate || query.predicate != fn->name) {
      return Status::InvalidArgument("record has unknown predicate '" +
                                     query.predicate + "'");
    }
  }
  const bool pattern_ok =
      query.extra == engine::PredicateExtra::kPattern
          ? query.pattern.size() == 9 &&
                query.pattern.find_first_not_of("TF012*") == std::string::npos
          : query.pattern.empty();
  if (!pattern_ok) {
    return Status::InvalidArgument("record has malformed pattern '" +
                                   query.pattern + "'");
  }
  if (!std::isfinite(query.distance)) {
    return Status::InvalidArgument("record has non-finite distance");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> TestCaseCodec::Encode(
    const TestCaseRecord& record) {
  std::vector<uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + 4);
  PutU16(&out, kVersion);
  PutU8(&out, static_cast<uint8_t>(record.kind));
  PutU8(&out, static_cast<uint8_t>(record.dialect));
  PutU64(&out, record.seed);
  PutU64(&out, record.iteration);
  PutU8(&out, record.sdb.with_index ? 1 : 0);

  PutU32(&out, static_cast<uint32_t>(record.sdb.tables.size()));
  for (const auto& table : record.sdb.tables) {
    PutString(&out, table.name);
    PutU32(&out, static_cast<uint32_t>(table.rows.size()));
    for (const auto& wkt : table.rows) {
      auto parsed = geom::ReadWkt(wkt);
      if (!parsed.ok()) {
        return Status::InvalidArgument("unencodable row '" + wkt +
                                       "': " + parsed.status().message());
      }
      PutBlob(&out, geom::WriteWkb(*parsed.value()));
    }
  }

  PutU8(&out, record.has_query ? 1 : 0);
  if (record.has_query) {
    PutString(&out, record.query.table1);
    PutString(&out, record.query.table2);
    PutString(&out, record.query.predicate);
    PutU8(&out, static_cast<uint8_t>(record.query.extra));
    PutF64(&out, record.query.distance);
    PutString(&out, record.query.pattern);
  }

  const algo::AffineTransform& t = record.transform;
  for (double v : {t.a11(), t.a12(), t.a21(), t.a22(), t.b1(), t.b2()}) {
    PutF64(&out, v);
  }
  // Derived, not copied: the oracle field is authoritative and the legacy
  // flag must never disagree with it on disk.
  PutU8(&out,
        record.oracle == fuzz::OracleKind::kCanonicalOnly ? 1 : 0);

  PutU32(&out, static_cast<uint32_t>(record.sites.size()));
  for (uint64_t key : record.sites) PutU64(&out, key);
  PutU32(&out, static_cast<uint32_t>(record.fault_ids.size()));
  for (uint32_t id : record.fault_ids) PutU32(&out, id);
  PutU8(&out, static_cast<uint8_t>(record.oracle));
  PutU8(&out, static_cast<uint8_t>(record.diff_secondary));
  return out;
}

Result<TestCaseRecord> TestCaseCodec::Decode(
    const std::vector<uint8_t>& data) {
  if (data.size() < 6 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("not a test-case record (bad magic)");
  }
  Reader r(data);
  uint8_t skip;
  for (int i = 0; i < 4; ++i) {
    if (!r.U8(&skip)) return Truncated();  // magic, validated above
  }
  uint16_t version;
  if (!r.U16(&version)) return Truncated();
  if (version < 1 || version > kVersion) {
    return Status::InvalidArgument("unsupported record version " +
                                   std::to_string(version));
  }

  TestCaseRecord rec;
  uint8_t kind, dialect, with_index, has_query, canonical_only;
  if (!r.U8(&kind) || !r.U8(&dialect) || !r.U64(&rec.seed) ||
      !r.U64(&rec.iteration) || !r.U8(&with_index)) {
    return Truncated();
  }
  if (kind > static_cast<uint8_t>(RecordKind::kReproducer) ||
      dialect >= engine::kNumDialects) {
    return Status::InvalidArgument("record has invalid kind or dialect");
  }
  rec.kind = static_cast<RecordKind>(kind);
  rec.dialect = static_cast<engine::Dialect>(dialect);
  rec.sdb.with_index = with_index != 0;

  uint32_t ntables;
  if (!r.U32(&ntables)) return Truncated();
  for (uint32_t t = 0; t < ntables; ++t) {
    fuzz::TableSpec table;
    uint32_t nrows;
    if (!r.String(&table.name) || !r.U32(&nrows)) return Truncated();
    if (!IsPlainIdentifier(table.name)) return NotPlain(table.name);
    for (uint32_t row = 0; row < nrows; ++row) {
      std::vector<uint8_t> wkb;
      if (!r.Blob(&wkb)) return Truncated();
      auto parsed = geom::ReadWkb(wkb);
      if (!parsed.ok()) return parsed.status();
      table.rows.push_back(geom::WriteWkt(*parsed.value()));
    }
    rec.sdb.tables.push_back(std::move(table));
  }

  if (!r.U8(&has_query)) return Truncated();
  rec.has_query = has_query != 0;
  if (rec.has_query) {
    uint8_t extra;
    if (!r.String(&rec.query.table1) || !r.String(&rec.query.table2) ||
        !r.String(&rec.query.predicate) || !r.U8(&extra) ||
        !r.F64(&rec.query.distance) || !r.String(&rec.query.pattern)) {
      return Truncated();
    }
    if (extra > static_cast<uint8_t>(engine::PredicateExtra::kPattern)) {
      return Status::InvalidArgument("record has invalid predicate extra");
    }
    rec.query.extra = static_cast<engine::PredicateExtra>(extra);
    SPATTER_RETURN_NOT_OK(CheckQuery(rec.query));
  }

  double m[6];
  for (double& v : m) {
    if (!r.F64(&v)) return Truncated();
  }
  rec.transform = algo::AffineTransform(m[0], m[1], m[2], m[3], m[4], m[5]);
  // v1's oracle identity; a v2 record's own kind overrides it below.
  if (!r.U8(&canonical_only)) return Truncated();
  rec.oracle = canonical_only != 0 ? fuzz::OracleKind::kCanonicalOnly
                                   : fuzz::OracleKind::kAei;

  uint32_t nsites;
  if (!r.U32(&nsites)) return Truncated();
  for (uint32_t i = 0; i < nsites; ++i) {
    uint64_t key;
    if (!r.U64(&key)) return Truncated();
    rec.sites.push_back(key);
  }
  uint32_t nfaults;
  if (!r.U32(&nfaults)) return Truncated();
  for (uint32_t i = 0; i < nfaults; ++i) {
    uint32_t id;
    if (!r.U32(&id)) return Truncated();
    if (id >= static_cast<uint32_t>(faults::FaultId::kNumFaults)) {
      return Status::InvalidArgument("record has unknown fault id " +
                                     std::to_string(id));
    }
    rec.fault_ids.push_back(id);
  }
  if (version >= 2) {
    uint8_t oracle, secondary;
    if (!r.U8(&oracle) || !r.U8(&secondary)) return Truncated();
    if (oracle >= fuzz::kNumOracleKinds || secondary >= engine::kNumDialects) {
      return Status::InvalidArgument(
          "record has invalid oracle kind or secondary dialect");
    }
    rec.oracle = static_cast<fuzz::OracleKind>(oracle);
    rec.diff_secondary = static_cast<engine::Dialect>(secondary);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after test-case record");
  }
  return rec;
}

uint64_t TestCaseCodec::SiteSignature(const std::vector<uint64_t>& sites) {
  // Order-independent would hide permutations, but sites arrive sorted
  // (TakeTrace sorts); splitmix-style mixing over the sequence gives a
  // well-distributed signature either way.
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (sites.size() * 0xff51afd7ed558ccdULL);
  for (uint64_t s : sites) {
    uint64_t z = h + s + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace spatter::corpus

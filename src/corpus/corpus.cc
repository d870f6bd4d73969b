#include "corpus/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/fsio.h"
#include "obs/metrics.h"

namespace spatter::corpus {

namespace fs = std::filesystem;

bool Corpus::Admit(TestCaseRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(std::move(record), /*require_new_site=*/true);
}

bool Corpus::Restore(TestCaseRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(std::move(record), /*require_new_site=*/false);
}

bool Corpus::AdmitLocked(TestCaseRecord record, bool require_new_site) {
  // Canonicalize the site set: traces arrive ordered by registry index,
  // and registration order is a race across shards — two runs would hash
  // the same site SET to different signatures. Sorted keys make records
  // (and their persisted filenames) run-independent.
  std::sort(record.sites.begin(), record.sites.end());
  record.sites.erase(std::unique(record.sites.begin(), record.sites.end()),
                     record.sites.end());
  bool has_new_site = false;
  for (uint64_t key : record.sites) {
    if (covered_.find(key) == covered_.end()) {
      has_new_site = true;
      break;
    }
  }
  const uint64_t signature = TestCaseCodec::SiteSignature(record.sites);
  if ((require_new_site && !has_new_site) ||
      signatures_.count(signature) > 0) {
    rejected_++;
    SPATTER_METRIC_INC("corpus.rejected");
    return false;
  }
  for (uint64_t key : record.sites) {
    covered_.insert(key);
    holders_[key]++;
  }
  signatures_.insert(signature);
  if (options_.log_admissions && require_new_site) {
    admission_log_.push_back(record);
  }
  entries_.push_back(Slot{std::move(record), signature});
  admitted_++;
  static obs::Counter* admitted_counter =
      obs::MetricsRegistry::Instance().GetCounter("corpus.admitted");
  static obs::Counter* restored_counter =
      obs::MetricsRegistry::Instance().GetCounter("corpus.restored");
  (require_new_site ? admitted_counter : restored_counter)->Add();
  static obs::Gauge* size_gauge =
      obs::MetricsRegistry::Instance().GetGauge("corpus.size");
  if (entries_.size() > options_.max_entries) EvictLocked();
  size_gauge->Set(static_cast<int64_t>(entries_.size()));
  return true;
}

std::vector<TestCaseRecord> Corpus::TakeNewlyAdmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TestCaseRecord> out = std::move(admission_log_);
  admission_log_.clear();
  return out;
}

double Corpus::EnergyLocked(const Slot& slot) const {
  double energy = 0.0;
  for (uint64_t key : slot.record.sites) {
    auto it = holders_.find(key);
    if (it != holders_.end() && it->second > 0) {
      energy += 1.0 / static_cast<double>(it->second);
    }
  }
  return energy / static_cast<double>(1 + slot.fuzz_count);
}

void Corpus::NoteFuzzed(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i < entries_.size()) entries_[i].fuzz_count++;
}

void Corpus::EvictLocked() {
  // Victim: lowest energy among entries that are not the sole holder of
  // any site. If every entry is favored, the oldest goes — its sites stay
  // in covered_, so its behaviour is remembered even though the bytes are
  // dropped.
  size_t victim = entries_.size();
  double victim_energy = 0.0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    bool favored = false;
    for (uint64_t key : entries_[i].record.sites) {
      auto it = holders_.find(key);
      if (it != holders_.end() && it->second == 1) {
        favored = true;
        break;
      }
    }
    if (favored) continue;
    const double energy = EnergyLocked(entries_[i]);
    if (victim == entries_.size() || energy < victim_energy) {
      victim = i;
      victim_energy = energy;
    }
  }
  if (victim == entries_.size()) victim = 0;
  for (uint64_t key : entries_[victim].record.sites) {
    auto it = holders_.find(key);
    if (it != holders_.end() && --it->second == 0) holders_.erase(it);
  }
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
  evicted_++;
  SPATTER_METRIC_INC("corpus.evicted");
}

size_t Corpus::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

TestCaseRecord Corpus::Entry(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return TestCaseRecord{};
  return entries_[std::min(i, entries_.size() - 1)].record;
}

std::vector<TestCaseRecord> Corpus::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TestCaseRecord> out;
  out.reserve(entries_.size());
  for (const auto& slot : entries_) out.push_back(slot.record);
  return out;
}

std::vector<double> Corpus::Energies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& slot : entries_) out.push_back(EnergyLocked(slot));
  return out;
}

size_t Corpus::covered_sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return covered_.size();
}

uint64_t Corpus::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

uint64_t Corpus::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

uint64_t Corpus::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

void Corpus::MergeFrom(const Corpus& other) {
  // Copy first: locking both corpora at once invites deadlock if callers
  // ever merge in both directions.
  //
  // Restore semantics (signature dedup only), NOT the new-coverage rule:
  // shard corpora contain entries restored from disk, and re-litigating
  // their admission in merge order would drop some of them — after which
  // SaveTo's stale-file cleanup deletes them permanently. Every incoming
  // entry already justified itself in its own shard's context; exact
  // behavioural duplicates across shards still collapse by signature.
  std::vector<TestCaseRecord> incoming = other.Entries();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& record : incoming) {
    AdmitLocked(std::move(record), /*require_new_site=*/false);
  }
}

namespace {
constexpr const char kEntryPrefix[] = "cc-";
constexpr const char kEntrySuffix[] = ".sptc";

std::string EntryFileName(uint64_t signature) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", kEntryPrefix,
                static_cast<unsigned long long>(signature), kEntrySuffix);
  return buf;
}

bool IsEntryFileName(const std::string& name) {
  return name.size() > sizeof(kEntryPrefix) - 1 + sizeof(kEntrySuffix) - 1 &&
         name.compare(0, sizeof(kEntryPrefix) - 1, kEntryPrefix) == 0 &&
         name.compare(name.size() - (sizeof(kEntrySuffix) - 1),
                      sizeof(kEntrySuffix) - 1, kEntrySuffix) == 0;
}
}  // namespace

Status Corpus::SaveTo(const std::string& dir) const {
  std::vector<Slot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create corpus dir '" + dir +
                            "': " + ec.message());
  }
  std::set<std::string> live;
  for (const auto& slot : snapshot) {
    const std::string name = EntryFileName(slot.signature);
    live.insert(name);
    auto encoded = TestCaseCodec::Encode(slot.record);
    if (!encoded.ok()) return encoded.status();
    // Atomic write-rename: the fleet checkpoint path re-saves the corpus
    // mid-campaign, so a supervisor killed here must leave every entry
    // file whole — a torn .sptc would be silently skipped on the next
    // load and then deleted as stale by the save after that.
    const Status written =
        AtomicWriteFile((fs::path(dir) / name).string(),
                        encoded.value().data(), encoded.value().size());
    if (!written.ok()) return written;
  }
  // Drop stale entry files so the directory mirrors the corpus (evicted
  // and merged-away entries would otherwise resurrect on the next load),
  // plus temp files orphaned by a writer killed mid-persist.
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    const bool stale_entry =
        IsEntryFileName(name) && live.find(name) == live.end();
    const bool orphan_tmp =
        name.find(std::string(kEntrySuffix) + ".tmp.") != std::string::npos;
    if (stale_entry || orphan_tmp) fs::remove(item.path(), ec);
  }
  return Status::OK();
}

Result<size_t> Corpus::LoadFrom(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return size_t{0};
  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (IsEntryFileName(item.path().filename().string())) {
      files.push_back(item.path());
    }
  }
  if (ec) {
    return Status::Internal("cannot list corpus dir '" + dir +
                            "': " + ec.message());
  }
  std::sort(files.begin(), files.end());  // deterministic admission order
  size_t loaded = 0;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    auto decoded = TestCaseCodec::Decode(data);
    if (!decoded.ok()) continue;  // skip corrupt files, keep the rest
    if (Restore(decoded.Take())) loaded++;
  }
  return loaded;
}

}  // namespace spatter::corpus

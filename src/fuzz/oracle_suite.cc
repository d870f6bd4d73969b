#include "fuzz/oracle_suite.h"

#include <algorithm>

#include "common/strings.h"
#include "eet/eet_oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spatter::fuzz {

// --- Spec / factory ----------------------------------------------------------

engine::Dialect EffectiveDiffSecondary(const OracleSuiteSpec& spec,
                                       engine::Dialect primary) {
  if (spec.diff_secondary != primary) return spec.diff_secondary;
  return primary == engine::Dialect::kMysql ? engine::Dialect::kPostgis
                                            : engine::Dialect::kMysql;
}

const char* OracleCliToken(OracleKind kind) {
  switch (kind) {
    case OracleKind::kAei:
      return "aei";
    case OracleKind::kCanonicalOnly:
      return "canon";
    case OracleKind::kDifferential:
      return "diff";
    case OracleKind::kIndex:
      return "index";
    case OracleKind::kTlp:
      return "tlp";
    case OracleKind::kGeneration:
      return "gen";  // attribution-only; ParseOracleSuite rejects it
    case OracleKind::kEet:
      return "eet";
  }
  return "aei";
}

Result<OracleSuiteSpec> ParseOracleSuite(const std::string& csv) {
  OracleSuiteSpec spec;
  spec.oracles.clear();
  auto add = [&spec](OracleKind kind) -> Status {
    if (std::find(spec.oracles.begin(), spec.oracles.end(), kind) !=
        spec.oracles.end()) {
      return Status::InvalidArgument(std::string("duplicate oracle '") +
                                     OracleCliToken(kind) + "'");
    }
    spec.oracles.push_back(kind);
    return Status::OK();
  };
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    std::string token = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    // Optional "/N" budget suffix on single-oracle tokens ("tlp/8",
    // "diff:mysql/8"): run the oracle every Nth query.
    uint64_t budget = 0;
    const size_t slash = token.find('/');
    if (slash != std::string::npos) {
      const std::string n = token.substr(slash + 1);
      token = token.substr(0, slash);
      if (token == "all" || !ParseU64(n, &budget) || budget == 0) {
        return Status::InvalidArgument("bad oracle budget suffix '/" + n +
                                       "' (want /N with N >= 1)");
      }
    }
    const size_t oracles_before = spec.oracles.size();
    if (token == "aei") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kAei));
    } else if (token == "canon") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kCanonicalOnly));
    } else if (token == "index") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kIndex));
    } else if (token == "tlp") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kTlp));
    } else if (token == "eet") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kEet));
    } else if (token == "diff") {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kDifferential));
    } else if (token.rfind("diff:", 0) == 0) {
      SPATTER_RETURN_NOT_OK(add(OracleKind::kDifferential));
      // "diff:" with nothing after the colon must be an error, not a
      // silent fall-through to the default secondary.
      auto dialect = engine::ParseDialectCliToken(token.substr(5));
      SPATTER_RETURN_NOT_OK(dialect.status());
      spec.diff_secondary = dialect.value();
    } else if (token == "all") {
      for (OracleKind kind :
           {OracleKind::kAei, OracleKind::kDifferential, OracleKind::kIndex,
            OracleKind::kTlp, OracleKind::kEet}) {
        SPATTER_RETURN_NOT_OK(add(kind));
      }
    } else {
      return Status::InvalidArgument("unknown oracle '" + token +
                                     "' (expected aei, canon, diff[:dialect], "
                                     "index, tlp, eet, or all)");
    }
    if (budget >= 2 && spec.oracles.size() == oracles_before + 1) {
      spec.budgets[spec.oracles.back()] = budget;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (spec.oracles.empty()) {
    return Status::InvalidArgument("--oracles needs at least one oracle");
  }
  return spec;
}

std::string FormatOracleSuite(const OracleSuiteSpec& spec) {
  std::string out;
  for (OracleKind kind : spec.oracles) {
    if (!out.empty()) out += ",";
    if (kind == OracleKind::kDifferential &&
        spec.diff_secondary != OracleSuiteSpec().diff_secondary) {
      out += "diff:";
      out += engine::DialectCliToken(spec.diff_secondary);
    } else {
      out += OracleCliToken(kind);
    }
    const auto budget = spec.budgets.find(kind);
    if (budget != spec.budgets.end() && budget->second >= 2) {
      out += "/" + std::to_string(budget->second);
    }
  }
  return out;
}

std::unique_ptr<Oracle> MakeOracle(OracleKind kind, engine::Dialect primary,
                                   bool enable_faults,
                                   const OracleSuiteSpec& spec) {
  switch (kind) {
    case OracleKind::kAei:
      return std::make_unique<AeiOracle>();
    case OracleKind::kCanonicalOnly:
      return std::make_unique<CanonicalOnlyOracle>();
    case OracleKind::kDifferential:
      return std::make_unique<DifferentialOracle>(
          EffectiveDiffSecondary(spec, primary), enable_faults);
    case OracleKind::kIndex:
      return std::make_unique<IndexOracle>();
    case OracleKind::kTlp:
      return std::make_unique<TlpOracle>();
    case OracleKind::kEet: {
      // The /N budget samples EET's internal variant loop (see
      // Oracle::SamplesOwnBudget); no budget entry means every variant.
      const auto budget = spec.budgets.find(OracleKind::kEet);
      return std::make_unique<eet::EetOracle>(
          budget == spec.budgets.end() ? 0 : budget->second);
    }
    case OracleKind::kGeneration:
      break;  // not a runnable oracle; fall through to the default
  }
  return std::make_unique<AeiOracle>();
}

std::unique_ptr<Oracle> MakeDetectingOracle(OracleKind kind,
                                            engine::Dialect primary,
                                            engine::Dialect diff_secondary,
                                            bool enable_faults) {
  OracleSuiteSpec spec;
  spec.diff_secondary = diff_secondary;
  // MakeOracle resolves diff_secondary == primary to a non-degenerate pair,
  // so a corrupt record still yields a runnable (if different) check.
  return MakeOracle(kind, primary, enable_faults, spec);
}

OracleSuite::OracleSuite(const OracleSuiteSpec& spec, engine::Dialect primary,
                         bool enable_faults)
    : spec_(spec) {
  for (OracleKind kind : spec_.oracles) {
    oracles_.push_back(MakeOracle(kind, primary, enable_faults, spec_));
  }
  instruments_.resize(oracles_.size());
}

namespace {

/// Verdict counter suffixes, indexed as OracleSuite::Instruments::verdicts.
constexpr const char* kVerdicts[] = {".ok", ".mismatch", ".crash",
                                     ".inapplicable"};

/// "oracle.<token><suffix>": per-oracle telemetry is keyed by the stable
/// CLI token ("oracle.aei.*", "oracle.tlp.*", ...).
std::string InstrumentName(const Oracle& oracle, const char* suffix) {
  return std::string("oracle.") + oracle.Name() + suffix;
}

}  // namespace

std::vector<OracleFinding> OracleSuite::CheckAll(engine::Engine* engine,
                                                 const DatabaseSpec& sdb1,
                                                 const QuerySpec& query,
                                                 const OracleCtx& ctx) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  std::vector<OracleFinding> findings;
  findings.reserve(oracles_.size());
  for (size_t i = 0; i < oracles_.size(); ++i) {
    const Oracle& oracle = *oracles_[i];
    Instruments& instruments = instruments_[i];
    OracleFinding finding;
    finding.oracle = &oracle;
    // Budgeted oracles sample every Nth query by global ordinal — a pure
    // function of the iteration index, so every shard of any P x J
    // factorization makes the same run/skip decision for the same query.
    const auto budget = spec_.budgets.find(oracle.Kind());
    if (!oracle.SamplesOwnBudget() && budget != spec_.budgets.end() &&
        budget->second >= 2 && ctx.query_ordinal % budget->second != 0) {
      if (instruments.budget_skipped == nullptr) {
        instruments.budget_skipped =
            registry.GetCounter(InstrumentName(oracle, ".budget_skipped"));
      }
      instruments.budget_skipped->Add();
      continue;
    }
    if (instruments.check == nullptr) {
      instruments.check =
          registry.GetHistogram(InstrumentName(oracle, ".check"));
    }
    {
      obs::ScopedTimer check_timer(instruments.check,
                                   obs::ScopedTimer::Clock::kThreadCpu);
      finding.outcome = oracles_[i]->Check(engine, sdb1, query, ctx);
    }
    const OracleOutcome& o = finding.outcome;
    const size_t verdict = !o.applicable ? 3 : o.crash ? 2 : o.mismatch ? 1 : 0;
    obs::Counter*& counter = instruments.verdicts[verdict];
    if (counter == nullptr) {
      counter = registry.GetCounter(InstrumentName(oracle, kVerdicts[verdict]));
    }
    counter->Add();
    obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
    if (tracer.enabled()) {
      tracer.Emit("oracle.verdict", ctx.query_ordinal,
                  InstrumentName(oracle, kVerdicts[verdict]).c_str());
    }
    findings.push_back(std::move(finding));
  }
  return findings;
}

}  // namespace spatter::fuzz

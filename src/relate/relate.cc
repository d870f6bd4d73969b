#include "relate/relate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "algo/boundary.h"
#include "algo/noding.h"
#include "common/coverage.h"
#include "geom/predicates.h"
#include "obs/metrics.h"
#include "relate/point_locator.h"

namespace spatter::relate {

using geom::Coord;
using geom::Geometry;
using geom::GeomType;

namespace {

// Predicate tolerance for derived points (noded vertices, midpoints).
constexpr double kEps = geom::kDerivedEps;

// Envelope pre-filter eligibility: the closed-form disjoint matrix is exact
// only when no enabled fault could alter a geometry's *self*-classification.
// Top-level GEOMETRYCOLLECTIONs (kGeosGcBoundaryLastOneWins) and EMPTY
// elements (kGeosBoundaryEmptyElementDrop) route through the full witness
// path; everything else classifies itself identically either way.
bool EnvelopeFastPathSafe(const Geometry& g, const faults::FaultState* faults) {
  if (!faults) return true;
  if (g.type() == GeomType::kGeometryCollection) return false;
  return !HasEmptyElement(g);
}

// Strict separation with a margin that scales as the kernel's tolerance
// does: OnSegment accepts a point kEps * max(1, |coordinate|) beyond a
// segment's end, so envelopes must be farther apart than 16 times that at
// the largest |coordinate| of either envelope before the pre-filter may
// conclude "no interaction". (fmax skips a NaN bound.)
bool EnvelopesSeparated(const geom::Envelope& ea, const geom::Envelope& eb) {
  double scale = 1.0;
  for (const geom::Envelope* e : {&ea, &eb}) {
    for (const double v : {e->min_x(), e->max_x(), e->min_y(), e->max_y()}) {
      scale = std::fmax(scale, std::fabs(v));
    }
  }
  const double margin = kEps * 16.0 * scale;
  return ea.min_x() > eb.max_x() + margin || eb.min_x() > ea.max_x() + margin ||
         ea.min_y() > eb.max_y() + margin || eb.min_y() > ea.max_y() + margin;
}

// Dimension of the actual point set: a fully degenerate (zero-length) line
// is a 0-dimensional set even though its declared type is 1-dimensional.
// Used for the empty-versus-nonempty matrix entries so they agree with
// the canonical representation of the same point set.
int PointSetDimension(const Geometry& g) {
  switch (g.type()) {
    case GeomType::kPoint:
      return g.IsEmpty() ? -1 : 0;
    case GeomType::kLineString: {
      const auto& pts = geom::AsLineString(g).points();
      if (pts.empty()) return -1;
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (pts[i] != pts[i + 1]) return 1;
      }
      return 0;
    }
    case GeomType::kPolygon:
      return g.IsEmpty() ? -1 : 2;
    default: {
      const auto& coll = geom::AsCollection(g);
      int dim = -1;
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        dim = std::max(dim, PointSetDimension(coll.ElementAt(i)));
      }
      return dim;
    }
  }
}

}  // namespace

bool HasEmptyElement(const Geometry& g) {
  if (!g.IsCollection()) return false;
  const auto& coll = geom::AsCollection(g);
  for (size_t i = 0; i < coll.NumElements(); ++i) {
    if (coll.ElementAt(i).IsEmpty() || HasEmptyElement(coll.ElementAt(i))) {
      return true;
    }
  }
  return false;
}

int NestingDepth(const Geometry& g) {
  if (!g.IsCollection()) return 0;
  const auto& coll = geom::AsCollection(g);
  int depth = 0;
  for (size_t i = 0; i < coll.NumElements(); ++i) {
    depth = std::max(depth, NestingDepth(coll.ElementAt(i)));
  }
  return depth + 1;
}

int EffectiveDimension(const Geometry& g, const faults::FaultState* faults) {
  if (faults && g.type() == GeomType::kGeometryCollection) {
    const auto& coll = geom::AsCollection(g);
    if (coll.NumElements() > 0 &&
        faults->Fire(faults::FaultId::kGeosMixedDimensionFirstElement)) {
      return coll.ElementAt(0).Dimension();
    }
  }
  return g.Dimension();
}

namespace {

using FullPath = IntersectionMatrix (*)(const Geometry&, const Geometry&,
                                        const faults::FaultState*);

// The crash check, the empty-operand exits and the envelope pre-filter run
// on every call: each is cheap and fires its own fault or coverage site.
// Any other pair goes to `full`.
Result<IntersectionMatrix> RelateVia(FullPath full, const Geometry& a,
                                     const Geometry& b,
                                     const faults::FaultState* faults) {
  // IsEnabled first: Fire on a disabled id records nothing, so the depth
  // walk is only needed when the fault can fire.
  if (faults && faults->IsEnabled(faults::FaultId::kGeosCrashRelateNestedGc) &&
      (NestingDepth(a) >= 3 || NestingDepth(b) >= 3) &&
      faults->Fire(faults::FaultId::kGeosCrashRelateNestedGc)) {
    return Status::Crash(
        "simulated GEOS crash: relate on deeply nested collections");
  }

  IntersectionMatrix im;
  const bool a_empty = a.IsEmpty();
  const bool b_empty = b.IsEmpty();
  im.Set(Location::kExterior, Location::kExterior, 2);

  if (a_empty && b_empty) {
    SPATTER_COV("relate", "both_empty");
    return im;
  }
  if (a_empty) {
    SPATTER_COV("relate", "a_empty");
    im.Set(Location::kExterior, Location::kInterior, PointSetDimension(b));
    im.Set(Location::kExterior, Location::kBoundary, algo::BoundaryDimension(b));
    return im;
  }
  if (b_empty) {
    SPATTER_COV("relate", "b_empty");
    im.Set(Location::kInterior, Location::kExterior, PointSetDimension(a));
    im.Set(Location::kBoundary, Location::kExterior, algo::BoundaryDimension(a));
    return im;
  }

  // Envelope pre-filter (join-executor hot path): separated envelopes admit
  // a closed-form DE-9IM matrix — every intersection entry is F and the
  // exterior column depends only on each geometry's own point set, exactly
  // as the empty-operand branches above compute it. Skipping the full
  // path's noding and point location is the dominant saving for the join
  // executor's all-pairs predicate evaluation over spread-out tables.
  if (EnvelopesSeparated(a.GetEnvelope(), b.GetEnvelope()) &&
      EnvelopeFastPathSafe(a, faults) && EnvelopeFastPathSafe(b, faults)) {
    SPATTER_COV("relate", "envelope_disjoint");
    SPATTER_METRIC_INC("relate.envelope_prefilter");
    im.Set(Location::kInterior, Location::kExterior, PointSetDimension(a));
    im.Set(Location::kBoundary, Location::kExterior, algo::BoundaryDimension(a));
    im.Set(Location::kExterior, Location::kInterior, PointSetDimension(b));
    im.Set(Location::kExterior, Location::kBoundary, algo::BoundaryDimension(b));
    return im;
  }

  return full(a, b, faults);
}

// What the kernel derives from one operand alone (relate.h): its
// prepared locator with the interior-point witnesses, its noder input and
// self cuts, and, each filled on first use, where its own points lie in
// it. Nothing in it refers to the geometry it was prepared from.
class KernelOperand {
 public:
  /// Own-point slots per noder element: its start, its end, and the
  /// midpoint of the element whole.
  static constexpr size_t kStart = 0;
  static constexpr size_t kEnd = 1;
  static constexpr size_t kMid = 2;
  static constexpr size_t kSlotsPerElement = 3;
  /// Locate's `own` for a point that is no own point.
  static constexpr size_t kNotOwn = SIZE_MAX;

  /// Prepares the operand for g. A `cached` operand keeps the answers
  /// its own-point slots get; any other locates every point.
  void Prepare(const Geometry& g, bool cached) {
    located_.Prepare(g, kEps, &noding_);
    algo::FindSelfCuts(kEps, &noding_);
    cached_ = cached;
    own_.assign(cached ? kSlotsPerElement * (noding_.segments.size() +
                                             noding_.points.size())
                       : 0,
                Own());
  }

  const PreparedOperand& located() const { return located_; }
  const algo::NodingOperand& noding() const { return noding_; }

  /// located().Locate(p, faults, tally, areal). When p is one of the
  /// operand's own points, `own` is its slot, kSlotsPerElement * e plus
  /// kStart, kEnd or kMid, and in a cached operand the slot's first use
  /// keeps the answer and the tally delta for every later one; kNotOwn
  /// otherwise. Callers pass the enabled set the operand is keyed by.
  Location Locate(const Coord& p, size_t own,
                  const faults::FaultState* faults, Tally* tally,
                  Location* areal = nullptr) {
    if (own == kNotOwn || !cached_) {
      return located_.Locate(p, faults, tally, areal);
    }
    Own& slot = own_[own];
    if (!slot.known) {
      Tally located;
      slot.location = located_.Locate(p, faults, &located, &slot.areal);
      for (int site = 0; site < Own::kSites; ++site) {
        slot.hits[site] = static_cast<uint16_t>(located.hits[site]);
      }
      slot.fired = located.fired;
      slot.known = true;
    }
    for (int site = 0; site < Own::kSites; ++site) {
      tally->hits[site] += slot.hits[site];
    }
    tally->fired |= slot.fired;
    if (areal) *areal = slot.areal;
    return slot.location;
  }

 private:
  // An own point's answer and the tally its Locate made. Locate reaches
  // only the six locate sites, each at most once per top-level element
  // of a cached operand (fewer than kMaxWords), so 16 bits hold a count.
  struct Own {
    static constexpr int kSites = Tally::kLocateExterior + 1;
    uint64_t fired = 0;
    uint16_t hits[kSites] = {};
    Location location = Location::kExterior;
    Location areal = Location::kExterior;
    bool known = false;
  };

  PreparedOperand located_;
  algo::NodingOperand noding_;
  bool cached_ = false;
  std::vector<Own> own_;
};

bool SameBits(const Coord& p, const Coord& q) {
  return std::memcmp(&p, &q, sizeof p) == 0;
}

// The full path: node both operands' linework, then classify every node,
// edge midpoint and interior-point witness. It reads the two operands and
// the enabled fault set, and nothing else; it never calls Relate. It hits
// no coverage site and fires no fault itself: it adds them to `*tally`,
// for the caller to apply. A point that is one of an operand's own points
// is located in that operand from its slot (KernelOperand::Locate): a node
// the noder registered from the operand's endpoint or point, and the
// midpoint of an edge that is a whole, unmoved segment of the operand.
IntersectionMatrix FullRelate(KernelOperand& op_a, KernelOperand& op_b,
                              const faults::FaultState* faults, Tally* tally) {
  IntersectionMatrix im;
  im.Set(Location::kExterior, Location::kExterior, 2);
  const PreparedOperand& prepared_a = op_a.located();
  const PreparedOperand& prepared_b = op_b.located();

  // 1. Node the combined linework. Isolated point elements join as
  // degenerate segments so edges split at them too — otherwise an edge
  // midpoint could coincide with a point element and misattribute the
  // whole edge to that 0-dimensional intersection. The result is
  // per-thread scratch reused across calls.
  thread_local algo::NodingResult noded;
  SPATTER_METRIC_INC("relate.full");
  algo::NodeOperands(op_a.noding(), op_b.noding(), kEps, &noded);

  // The noder's input i is A's segments, B's segments, A's points, B's
  // points in turn: whose element it is, and which.
  const size_t na = op_a.noding().segments.size();
  const size_t nb = op_b.noding().segments.size();
  const size_t ma = op_a.noding().points.size();
  const auto element_of = [&](size_t i, bool* of_a) {
    *of_a = i < na || (i >= na + nb && i < na + nb + ma);
    if (i < na) return i;
    if (i < na + nb) return i - na;
    return *of_a ? i - nb : i - na - ma;
  };
  constexpr size_t kNotOwn = KernelOperand::kNotOwn;
  constexpr size_t kPerElement = KernelOperand::kSlotsPerElement;

  // 2. Classification points: all nodes plus isolated point elements.
  const auto classify = [&](const Coord& p, size_t own_a, size_t own_b) {
    const Location la = op_a.Locate(p, own_a, faults, tally);
    const Location lb = op_b.Locate(p, own_b, faults, tally);
    im.SetAtLeast(la, lb, 0);
  };
  for (size_t k = 0; k < noded.nodes.size(); ++k) {
    const uint32_t origin = noded.node_origins[k];
    size_t own_a = kNotOwn;
    size_t own_b = kNotOwn;
    if (origin != algo::kCutOrigin) {
      bool of_a = false;
      const size_t e = element_of(origin / 2, &of_a);
      (of_a ? own_a : own_b) =
          kPerElement * e +
          (origin % 2 == 0 ? KernelOperand::kStart : KernelOperand::kEnd);
    }
    classify(noded.nodes[k], own_a, own_b);
  }
  for (size_t k = 0; k < ma; ++k) {
    classify(op_a.noding().points[k].a,
             kPerElement * (na + k) + KernelOperand::kStart, kNotOwn);
  }
  for (size_t k = 0; k < op_b.noding().points.size(); ++k) {
    classify(op_b.noding().points[k].a, kNotOwn,
             kPerElement * (nb + k) + KernelOperand::kStart);
  }

  // 3. Split-edge midpoints contribute dimension 1. Because edges are
  // noded against both geometries, an open edge lies in a single location
  // class of each geometry, and its midpoint witnesses that class.
  const bool a_areal = prepared_a.areal();
  const bool b_areal = prepared_b.areal();
  const bool both_areal = a_areal && b_areal;
  bool areal_ii2 = false;
  bool areal_ie2 = false;
  bool areal_ei2 = false;
  for (const auto& edge : noded.edges) {
    const Coord mid = geom::Midpoint(edge.a, edge.b);
    bool of_a = false;
    const size_t e = element_of(edge.input_index, &of_a);
    const algo::TaggedSegment& raw = (of_a ? op_a : op_b).noding().element(e);
    size_t own_a = kNotOwn;
    size_t own_b = kNotOwn;
    if (SameBits(edge.a, raw.a) && SameBits(edge.b, raw.b)) {
      (of_a ? own_a : own_b) = kPerElement * e + KernelOperand::kMid;
    }
    // When both are areal, the same polygon scan also gives the midpoint's
    // areal location (LocateAreal).
    Location aa = Location::kExterior;
    Location ab = Location::kExterior;
    const Location la = op_a.Locate(mid, own_a, faults, tally,
                                    both_areal ? &aa : nullptr);
    const Location lb = op_b.Locate(mid, own_b, faults, tally,
                                    both_areal ? &ab : nullptr);
    im.SetAtLeast(la, lb, 1);
    if (both_areal) {
      // Dimension-2 witnesses from areal piece classification. An edge on
      // one geometry's areal boundary separates that geometry's interior
      // from its exterior locally; the other geometry's interior covers
      // both sides when the midpoint is areal-interior to it.
      if (aa == Location::kBoundary && ab == Location::kInterior) {
        areal_ii2 = true;  // inner side of dA inside I(B)
        areal_ei2 = true;  // outer side of dA inside I(B)
      }
      if (aa == Location::kInterior && ab == Location::kBoundary) {
        areal_ii2 = true;
        areal_ie2 = true;
      }
      if (aa == Location::kInterior && ab == Location::kInterior) {
        areal_ii2 = true;
      }
      if ((aa == Location::kBoundary || aa == Location::kInterior) &&
          ab == Location::kExterior) {
        areal_ie2 = true;
      }
      if (aa == Location::kExterior &&
          (ab == Location::kBoundary || ab == Location::kInterior)) {
        areal_ei2 = true;
      }
    }
  }

  // 4. Areal dimension-2 entries.
  if (a_areal && !b_areal) {
    tally->Hit(Tally::kRelateArealVsNonareal);
    // A's interior minus a measure-zero set still has dimension 2 in B's
    // exterior.
    im.SetAtLeast(Location::kInterior, Location::kExterior, 2);
  }
  if (b_areal && !a_areal) {
    im.SetAtLeast(Location::kExterior, Location::kInterior, 2);
  }
  if (both_areal) {
    tally->Hit(Tally::kRelateArealVsAreal);
    // Interior-point witnesses handle containment/equality, where no edge
    // piece lies strictly inside the other geometry.
    for (const Coord& ip : prepared_a.witnesses()) {
      const Location lb = prepared_b.LocateAreal(ip);
      if (lb == Location::kInterior) areal_ii2 = true;
      if (lb == Location::kExterior) areal_ie2 = true;
    }
    for (const Coord& ip : prepared_b.witnesses()) {
      const Location la = prepared_a.LocateAreal(ip);
      if (la == Location::kInterior) areal_ii2 = true;
      if (la == Location::kExterior) areal_ei2 = true;
    }
    if (areal_ii2) {
      im.SetAtLeast(Location::kInterior, Location::kInterior, 2);
    }
    if (areal_ie2) {
      im.SetAtLeast(Location::kInterior, Location::kExterior, 2);
    }
    if (areal_ei2) {
      im.SetAtLeast(Location::kExterior, Location::kInterior, 2);
    }
  }

  return im;
}

// Per-thread operands prepared afresh, one per side: RelateUnmemoized's,
// and the memoized path's for an operand too large to cache.
KernelOperand* FreshOperands() {
  thread_local KernelOperand fresh[2];
  return fresh;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Appends g's structure and coordinates to a memo key: per node one word
// holding the type tag and the point, ring or element count, then each
// ring's point count and every coordinate's raw bits. The encoding is
// prefix-free, so two operands concatenate unambiguously.
void AppendKey(const Geometry& g, std::vector<uint64_t>* key) {
  const auto head = [&](size_t n) {
    key->push_back(static_cast<uint64_t>(g.type()) | uint64_t{n} << 8);
  };
  const auto coord = [&](const Coord& c) {
    key->push_back(Bits(c.x));
    key->push_back(Bits(c.y));
  };
  switch (g.type()) {
    case GeomType::kPoint: {
      const auto& c = geom::AsPoint(g).coord();
      head(c ? 1 : 0);
      if (c) coord(*c);
      break;
    }
    case GeomType::kLineString:
      head(geom::AsLineString(g).NumPoints());
      for (const Coord& c : geom::AsLineString(g).points()) coord(c);
      break;
    case GeomType::kPolygon:
      head(geom::AsPolygon(g).NumRings());
      for (const auto& ring : geom::AsPolygon(g).rings()) {
        key->push_back(ring.size());
        for (const Coord& c : ring) coord(c);
      }
      break;
    default: {
      const auto& coll = geom::AsCollection(g);
      head(coll.NumElements());
      for (size_t i = 0; i < coll.NumElements(); ++i) {
        AppendKey(coll.ElementAt(i), key);
      }
      break;
    }
  }
}

uint64_t HashWords(const uint64_t* words, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return h;
}

uint64_t Finish(uint64_t h) {
  h ^= h >> 32;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

uint64_t HashKey(const std::vector<uint64_t>& key) {
  return Finish(HashWords(key.data(), key.size(), key.size()));
}

// FullRelate on operands prepared afresh, with its tally applied: the
// kernel run RelateUnmemoized makes.
IntersectionMatrix KernelRelate(const Geometry& a, const Geometry& b,
                                const faults::FaultState* faults) {
  KernelOperand* fresh = FreshOperands();
  fresh[0].Prepare(a, false);
  fresh[1].Prepare(b, false);
  Tally tally;
  const IntersectionMatrix im = FullRelate(fresh[0], fresh[1], faults, &tally);
  tally.Apply(faults);
  return im;
}

// A kernel operand's cache key: the enabled fault set's two memo key
// words, then the operand's AppendKey words.
struct OperandKey {
  const uint64_t* faults;  // 2 words
  const uint64_t* words;
  size_t size;
};

// Per-thread cache of kernel operands in front of KernelOperand::Prepare
// (relate.h states the key, the entry and the bounds).
class OperandCache {
 public:
  /// The operand `key` names, g's: from the cache on a hit; else prepared,
  /// into the oldest slot unless that holds `keep`, or into `fresh` when g
  /// is too large to cache.
  KernelOperand* Get(const Geometry& g, const OperandKey& key,
                     const KernelOperand* keep, KernelOperand* fresh);

 private:
  static constexpr size_t kSlots = 64;
  static constexpr size_t kIndexSlots = 256;
  static constexpr size_t kMaxWords = 64;

  struct Slot {
    std::vector<uint64_t> key;  // the fault words, then AppendKey's
    KernelOperand operand;
  };

  std::unique_ptr<Slot[]> slots_;
  size_t next_ = 0;               // the next slot a miss takes, mod kSlots
  std::vector<uint32_t> index_;  // by key hash: slot + 1; 0 = none
};

KernelOperand* OperandCache::Get(const Geometry& g, const OperandKey& key,
                                 const KernelOperand* keep,
                                 KernelOperand* fresh) {
  if (key.size > kMaxWords) {
    fresh->Prepare(g, false);
    return fresh;
  }
  if (!slots_) {
    slots_.reset(new Slot[kSlots]);
    index_.assign(kIndexSlots, 0);
  }
  uint64_t h = HashWords(key.faults, 2, HashWords(key.words, key.size, 0));
  uint32_t& ix = index_[Finish(h) % kIndexSlots];
  if (ix != 0) {
    const std::vector<uint64_t>& k = slots_[ix - 1].key;
    if (k.size() == 2 + key.size && std::equal(key.faults, key.faults + 2,
                                               k.begin()) &&
        std::equal(key.words, key.words + key.size, k.begin() + 2)) {
      SPATTER_METRIC_INC("relate.operand.hit");
      return &slots_[ix - 1].operand;
    }
  }
  size_t victim = next_++ % kSlots;
  if (&slots_[victim].operand == keep) victim = next_++ % kSlots;
  Slot& slot = slots_[victim];
  slot.key.assign(key.faults, key.faults + 2);
  slot.key.insert(slot.key.end(), key.words, key.words + key.size);
  slot.operand.Prepare(g, true);
  ix = static_cast<uint32_t>(victim + 1);
  return &slot.operand;
}

// Per-thread memo in front of FullRelate (relate.h states the key, replay
// and log invariants). It allocates everything it uses on the thread's
// first full-path call.
class RelateMemo {
 public:
  IntersectionMatrix Relate(const Geometry& a, const Geometry& b,
                            const faults::FaultState* faults);

 private:
  static constexpr size_t kLogWords = 64 * 1024;
  static constexpr size_t kIndexSlots = 16384;

  // What a kernel run leaves besides its metrics.
  struct Outcome {
    IntersectionMatrix im;
    Tally tally;
  };
  // A record is a header word (the key's size), the outcome and the key,
  // back to back in the log.
  static_assert(std::is_trivially_copyable_v<Outcome>);
  static constexpr size_t kOutcomeWords =
      (sizeof(Outcome) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  static_assert(kOutcomeWords == 7,
                "a record's header and outcome take 8 words; a layout change "
                "changes how many records the log holds");

  const uint64_t* Find(uint64_t slot) const;
  uint64_t Append(const Outcome& outcome);

  std::vector<uint64_t> key_;  // the current call's key
  OperandCache operands_;
  // Every kernel run's record; log_end_ counts the words ever appended (a
  // record's position is its first word's count).
  std::unique_ptr<uint64_t[]> log_;
  uint64_t log_end_ = 0;
  std::vector<uint64_t> index_;  // by key hash: record position + 1; 0 = none
};

IntersectionMatrix RelateMemo::Relate(const Geometry& a, const Geometry& b,
                                      const faults::FaultState* faults) {
  if (!log_) {
    log_.reset(new uint64_t[kLogWords]);  // written before it is read
    index_.assign(kIndexSlots, 0);
  }
  key_.clear();
  key_.push_back(faults != nullptr);
  key_.push_back(faults ? faults->EnabledMask() : 0);
  AppendKey(a, &key_);
  const size_t b_key = key_.size();  // where b's words start
  AppendKey(b, &key_);
  uint64_t& slot = index_[HashKey(key_) % kIndexSlots];

  Outcome outcome;
  if (const uint64_t* record = Find(slot)) {
    SPATTER_METRIC_INC("relate.memo.hit");
    std::memcpy(static_cast<void*>(&outcome), record + 1, sizeof outcome);
    // A hit in the log's older half moves to its head: a pair that recurs
    // outlives the affine images each AEI query relates once.
    if (log_end_ - (slot - 1) > kLogWords / 2) slot = Append(outcome);
  } else {
    KernelOperand* fresh = FreshOperands();
    KernelOperand* op_a = operands_.Get(
        a, {key_.data(), key_.data() + 2, b_key - 2}, nullptr, &fresh[0]);
    KernelOperand* op_b = operands_.Get(
        b, {key_.data(), key_.data() + b_key, key_.size() - b_key}, op_a,
        &fresh[1]);
    outcome.im = FullRelate(*op_a, *op_b, faults, &outcome.tally);
    slot = Append(outcome);
  }
  outcome.tally.Apply(faults);
  return outcome.im;
}

// The record `slot` names when the log still holds it (at most kLogWords
// words appended from its first word on) and its key is the current key,
// word for word; null otherwise.
const uint64_t* RelateMemo::Find(uint64_t slot) const {
  if (slot == 0 || log_end_ - (slot - 1) > kLogWords) return nullptr;
  const uint64_t* record = &log_[(slot - 1) % kLogWords];
  if (record[0] != key_.size() ||
      !std::equal(key_.begin(), key_.end(), record + 1 + kOutcomeWords)) {
    return nullptr;
  }
  return record;
}

// Writes the current key's record after the last one, at the log's start
// when it would not fit before the end, and returns its position + 1 (0 for
// a record larger than the log, which is not kept).
uint64_t RelateMemo::Append(const Outcome& outcome) {
  const size_t size = 1 + kOutcomeWords + key_.size();
  if (size > kLogWords) return 0;
  const size_t tail = kLogWords - log_end_ % kLogWords;
  if (size > tail) log_end_ += tail;
  uint64_t* record = &log_[log_end_ % kLogWords];
  record[0] = key_.size();
  std::memcpy(record + 1, &outcome, sizeof outcome);
  std::copy(key_.begin(), key_.end(), record + 1 + kOutcomeWords);
  log_end_ += size;
  return log_end_ - size + 1;
}

IntersectionMatrix MemoizedFullRelate(const Geometry& a, const Geometry& b,
                                      const faults::FaultState* faults) {
  thread_local RelateMemo memo;
  return memo.Relate(a, b, faults);
}

}  // namespace

Result<IntersectionMatrix> Relate(const Geometry& a, const Geometry& b,
                                  const faults::FaultState* faults) {
  return RelateVia(MemoizedFullRelate, a, b, faults);
}

Result<IntersectionMatrix> RelateUnmemoized(const Geometry& a,
                                            const Geometry& b,
                                            const faults::FaultState* faults) {
  return RelateVia(KernelRelate, a, b, faults);
}

}  // namespace spatter::relate

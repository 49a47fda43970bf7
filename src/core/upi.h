// The UPI (Uncertain Primary Index) — the paper's primary contribution.
//
// The heap file is a B+Tree clustered on (clustered-attribute value ASC,
// combined probability DESC, TupleID), duplicating the full tuple once per
// alternative whose combined probability reaches the cutoff threshold C;
// remaining alternatives go to the cutoff index as pointers (Section 3.1,
// Algorithm 1). PTQs are answered with one index seek plus a sequential scan,
// consulting the cutoff index only when QT < C (Algorithm 2). Secondary
// indexes store multi-pointer entries exploited by tailored access
// (Section 3.2, Algorithm 3).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "core/cutoff_index.h"
#include "core/secondary_index.h"
#include "histogram/prob_histogram.h"
#include "histogram/selectivity.h"
#include "storage/db_env.h"

namespace upi::core {

struct UpiOptions {
  /// Column index of the clustered uncertain (discrete) attribute.
  int cluster_column = 0;
  /// The cutoff threshold C: alternatives with combined probability below
  /// this go to the cutoff index instead of the heap (except first
  /// alternatives, which always stay in the heap).
  double cutoff = 0.1;
  /// Heap / index page size (the paper's BDB setup used 8 KB pages).
  uint32_t page_size = 8192;
  /// Max pointers stored per secondary-index entry (Section 3.2's tuning
  /// knob); < 0 means unlimited.
  int max_secondary_pointers = 10;
  /// Charge Costinit per query per file touched. Off by default: the
  /// paper's measured single-table query times are below Costinit, so its
  /// prototype clearly kept table handles open across queries; Costinit
  /// appears only in the fractured cost model (per-fracture opens), which
  /// FracturedUpi charges itself. Figure 3's bench enables this to match the
  /// Cost_cut formula's 2*(Costinit + H*Tseek) term.
  bool charge_open_per_query = false;
  /// Fractured tables only: consult per-fracture FractureSummary metadata
  /// (zone maps, Bloom fences, max-probability cutoffs) to skip fractures a
  /// query cannot match, instead of paying the full Nfrac fan-out tax.
  /// Summaries are always *built* (they are cheap and immutable); this knob
  /// only gates consulting them, so flipping it never changes result rows —
  /// only how many fractures are opened. Plain UPIs ignore it.
  bool enable_pruning = true;
};

/// One PTQ result row.
struct PtqMatch {
  catalog::TupleId id = 0;
  double confidence = 0.0;
  catalog::Tuple tuple;
};

/// The result order every query layer delivers: descending confidence, ties
/// by ascending TupleId.
void SortByConfidenceDesc(std::vector<PtqMatch>* matches);

/// How a query uses secondary-index pointers (Figure 6's three curves are
/// PII-on-heap vs. these two modes).
enum class SecondaryAccessMode {
  kFirstPointer,  // always follow the highest-probability pointer
  kTailored,      // Algorithm 3: prefer heap regions already being read
};

class Upi;

/// Pull-based streaming cursor over one UPI's read path (Algorithm 2,
/// incremental). The heap phase streams the value's clustered region in
/// descending-probability order; the cutoff phase — pointer collection and
/// its heap fetches — is entered only when the consumer pulls past the heap
/// phase, so a consumer that stops early (top-k, LIMIT) never pays for it.
/// Fully drained, the access sequence is identical to QueryPtq/QueryTopK.
/// Must not outlive the Upi or be used across tree modifications (it wraps a
/// btree::Cursor).
class UpiPtqCursor {
 public:
  /// Produces the next match; false at end of stream or on error (check
  /// status() after a false return).
  bool Next(PtqMatch* out);
  const Status& status() const { return status_; }

 private:
  friend class Upi;
  UpiPtqCursor(const Upi* upi, std::string_view value, double qt,
               bool topk_mode, bool charge_open_on_consult);

  enum class Phase { kHeap, kCutoff, kDone };
  bool NextHeap(PtqMatch* out);
  bool NextCutoff(PtqMatch* out);
  /// Heap phase exhausted: collect cutoff pointers if this query consults
  /// them (QT < C, or top-k mode with a non-empty cutoff index).
  void EnterCutoffPhase();

  const Upi* upi_ = nullptr;
  std::string value_;
  std::string prefix_;
  double qt_ = 0.0;
  bool topk_mode_ = false;
  /// Charge the cutoff index's Costinit when (and only when) the cutoff
  /// phase is actually entered — the fractured fan-out's per-file open
  /// protocol, independent of charge_open_per_query.
  bool charge_open_on_consult_ = false;
  Phase phase_ = Phase::kHeap;
  btree::Cursor heap_;
  std::vector<CutoffIndex::PointerEntry> pointers_;
  size_t ptr_idx_ = 0;
  Status status_;
};

class Upi {
 public:
  /// Creates an empty UPI.
  Upi(storage::DbEnv* env, std::string name, catalog::Schema schema,
      UpiOptions options);

  /// Bulk-builds a UPI (and its cutoff index) from `tuples`; physically
  /// sequential like a freshly clustered table. Secondary indexes declared
  /// via AddSecondaryColumn *before* the call are bulk-built too.
  static Result<std::unique_ptr<Upi>> Build(storage::DbEnv* env,
                                            std::string name,
                                            catalog::Schema schema,
                                            UpiOptions options,
                                            std::vector<int> secondary_columns,
                                            const std::vector<catalog::Tuple>& tuples);

  /// Declares a secondary index on a discrete column of an empty UPI.
  Status AddSecondaryColumn(int column);

  /// Algorithm 1. Maintains heap, cutoff index, secondaries and histogram.
  Status Insert(const catalog::Tuple& tuple);

  /// Deletion (Section 3.1: "handled similarly, deleting entries from the
  /// heap file or cutoff index depends on the probability").
  Status Delete(const catalog::Tuple& tuple);

  /// Algorithm 2: SELECT * WHERE cluster_attr = value THRESHOLD qt.
  /// Results arrive heap-scan hits first (descending confidence), then
  /// cutoff-pointer hits.
  Status QueryPtq(std::string_view value, double qt,
                  std::vector<PtqMatch>* out) const;

  /// Top-k on the clustered attribute: scanning stops after k results — the
  /// early-termination benefit Section 3.1 describes. When fewer than k heap
  /// entries qualify, the cutoff index is consulted.
  Status QueryTopK(std::string_view value, size_t k,
                   std::vector<PtqMatch>* out) const;

  /// SELECT * WHERE sec_col = value THRESHOLD qt via a secondary index,
  /// fetching tuple data from the heap (Algorithm 3 when tailored).
  Status QueryBySecondary(int column, std::string_view value, double qt,
                          SecondaryAccessMode mode,
                          std::vector<PtqMatch>* out) const;

  /// Streaming Algorithm 2: QueryPtq's rows, pulled one at a time (the
  /// cutoff phase runs only if the consumer drains past the heap phase).
  /// `charge_open_on_consult` makes the cursor charge the cutoff index's
  /// Costinit when its phase is entered — how a fractured fan-out pays the
  /// per-file open for fractures whose own options don't charge opens.
  UpiPtqCursor OpenPtqCursor(std::string_view value, double qt,
                             bool charge_open_on_consult = false) const;

  /// Streaming top-k: QueryTopK's row stream without the k bound — the
  /// caller stops pulling after k rows, which is what makes it early-exit.
  UpiPtqCursor OpenTopKCursor(std::string_view value,
                              bool charge_open_on_consult = false) const;

  // --- Introspection -------------------------------------------------------

  const catalog::Schema& schema() const { return schema_; }
  const UpiOptions& options() const { return options_; }
  const std::string& name() const { return name_; }
  btree::BTree* heap_tree() const { return heap_.get(); }
  CutoffIndex* cutoff_index() const { return cutoff_.get(); }
  SecondaryIndex* secondary(int column) const;
  const histogram::ProbHistogram& prob_histogram() const { return histogram_; }
  /// Probability histogram of a secondary column (maintained alongside the
  /// secondary index); nullptr when no secondary index exists on `column`.
  const histogram::ProbHistogram* secondary_histogram(int column) const;
  /// Histogram-based estimate for a PTQ on this UPI (Section 6.1).
  histogram::PtqEstimate EstimatePtq(std::string_view value, double qt) const;
  /// Estimated number of secondary-index entries matching (value, qt) on
  /// `column` — the pointer count the planner feeds into the Section 6.3
  /// sigmoid. Zero when no secondary index exists.
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const;
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t heap_entries() const { return heap_->num_entries(); }
  uint64_t size_bytes() const;
  /// Every page file this UPI has created, the empty placeholders a bulk
  /// build or merge replaced included: what freeing the UPI's storage must
  /// remove.
  const std::vector<storage::PageFile*>& files() const { return files_; }
  /// Monotonic counter bumped by every Insert/Delete — the cost-model inputs
  /// moved. Prepared-plan caches compare it to decide when to re-plan.
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  /// Enumerates all heap entries in key order (used by merge and by tests):
  /// fn(encoded_key, serialized_tuple).
  void ScanHeap(const std::function<void(std::string_view, std::string_view)>& fn) const;

  /// Splits a tuple's clustered-column alternatives per Algorithm 1.
  struct AltPartition {
    std::vector<SecondaryPointer> heap_alts;    // duplicated in the heap
    std::vector<SecondaryPointer> cutoff_alts;  // pointers in cutoff index
  };
  AltPartition PartitionAlternatives(const catalog::Tuple& tuple) const;

 private:
  friend class FracturedUpi;
  friend class UpiPtqCursor;

  Status InsertSecondaryEntries(const catalog::Tuple& tuple,
                                const AltPartition& part);
  Status RemoveSecondaryEntries(const catalog::Tuple& tuple);
  Status FetchHeapTuple(const std::string& heap_key, catalog::Tuple* out) const;
  /// Adds the heap, cutoff and secondary files now in use to files_.
  void TrackFiles();

  storage::DbEnv* env_;
  std::string name_;
  catalog::Schema schema_;
  UpiOptions options_;

  storage::PageFile* heap_file_ = nullptr;
  std::unique_ptr<btree::BTree> heap_;
  std::unique_ptr<CutoffIndex> cutoff_;
  std::map<int, std::unique_ptr<SecondaryIndex>> secondaries_;
  histogram::ProbHistogram histogram_;
  /// One probability histogram per secondary column (same bucketing as the
  /// clustered histogram; all alternatives recorded as non-first).
  std::map<int, histogram::ProbHistogram> sec_histograms_;
  uint64_t num_tuples_ = 0;
  std::atomic<uint64_t> stats_epoch_{0};
  std::vector<storage::PageFile*> files_;
};

}  // namespace upi::core

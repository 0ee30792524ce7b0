/**
 * @file
 * TenantSession: one tenant's reference stream into the shared
 * controller (DESIGN.md §17).
 *
 * A session owns everything needed to *generate* its next batch of
 * references — a private copy of its workload profile driving an
 * AccessStream — so batch generation is a pure function of
 * session-owned state. That is the service's determinism
 * lever: the scheduler generates all tenants' batches in parallel on
 * the thread pool, then applies them serially in fixed tenant order,
 * and the merged result is bit-identical at any `--jobs N`.
 *
 * Every generated reference carries its data payload: the write's new
 * content, or the read's expected content (both are "the line's
 * current model content" — the same lineData() call). The scheduler
 * verifies reads against the expectation with the chaos harness's
 * tolerance rules (zero reads are what ballooning and the degradation
 * ladder legitimately produce; any other mismatch on a non-divergent
 * line is a silent corruption).
 *
 * The model cannot be rolled back when the shared controller drops a
 * write (unrescued machine OOM), so the session tracks *divergent*
 * lines instead: a dropped write marks its line divergent, a later
 * successful write heals it, and reads of divergent lines are counted
 * unverified rather than corrupt. A balloon-reclaimed page marks all
 * of its lines divergent the same way, so each heals individually as
 * it is rewritten.
 *
 * Adversary mode mutates the owned profile copy in place (page-random,
 * write-heavy, incompressible churn — the compressibility-collapse
 * neighbour) and restores it on toggle-off; the AccessStream reads the
 * profile by reference, so the switch takes effect mid-stream, exactly
 * like a tenant's behaviour turning hostile mid-service. Because the
 * workload class plan derives a *never-written* line's content from
 * the current profile, the session keeps a second, never-advanced
 * stream over the pristine profile and reads all version-0
 * expectations (and the populate image) from it — a mid-service
 * profile swap must never rewrite history.
 */

#ifndef COMPRESSO_SERVICE_SESSION_H
#define COMPRESSO_SERVICE_SESSION_H

#include <memory>
#include <unordered_set>
#include <vector>

#include "service/tenant.h"
#include "workloads/access_stream.h"

namespace compresso {

/** One reference of a tenant batch, with its data payload: the new
 *  content for writes, the expected content for reads. */
struct ServiceRef
{
    Addr addr = 0;
    bool write = false;
    Line data{};
};

class TenantSession
{
  public:
    /** @param service_seed experiment seed; the session derives its
     *  stream seed as Rng::combine(service_seed, tenant id). */
    TenantSession(const TenantSpec &spec, const TenantPartition &part,
                  uint64_t service_seed);

    TenantId id() const { return part_.id; }
    const TenantPartition &partition() const { return part_; }

    /** Replace @p out with the next @p n references. Pure function of
     *  session-owned state: safe to run on any worker thread while
     *  other sessions generate concurrently. */
    void generate(uint64_t n, std::vector<ServiceRef> &out);

    /** Initial content of @p addr before any stream writes (partition
     *  population). */
    void initialLineData(Addr addr, Line &out) const;

    bool adversary() const { return adversary_; }
    /** Toggle hostile behaviour; restores the pristine profile on the
     *  way off. */
    void setAdversary(bool on);

    // --- divergence model (scheduler feedback) ---
    /** The shared controller dropped this write (machine OOM). */
    void markDivergent(Addr addr);
    /** A write to @p addr committed: the line matches the model again. */
    void clearDivergent(Addr addr);
    /** The balloon reclaimed @p page: every line on it reads zero (and
     *  stays divergent) until individually rewritten. */
    void onPageFreed(PageNum page);
    /** True when a read of @p addr cannot be verified against the
     *  model (dropped write or reclaimed page not yet rewritten). */
    bool divergent(Addr addr) const;

    uint64_t refsGenerated() const { return refs_; }
    uint64_t pagesLost() const { return pages_lost_; }

  private:
    TenantPartition part_;
    uint64_t refs_ = 0;
    uint64_t pages_lost_ = 0;

    // Owned mutable profile + stream over it, plus a never-advanced
    // stream over the pristine profile that anchors version-0
    // (never-written) line expectations across adversary toggles.
    WorkloadProfile prof_;
    WorkloadProfile pristine_; ///< pre-adversary field values
    bool adversary_ = false;
    std::unique_ptr<AccessStream> stream_;
    std::unique_ptr<AccessStream> pristine_stream_;
    std::unordered_set<uint64_t> written_; ///< line keys ever written

    std::unordered_set<uint64_t> divergent_lines_;
};

} // namespace compresso

#endif // COMPRESSO_SERVICE_SESSION_H

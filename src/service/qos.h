/**
 * @file
 * QosPolicy: per-tenant fairness layered over the PressureGovernor
 * (DESIGN.md §17).
 *
 * The governor (PR 7) is machine-global: it throttles *classes* of
 * work as free chunks shrink, but cannot say *whose* work. In a
 * multi-tenant service that asymmetry is the whole problem — one
 * incompressible tenant generates the pressure, every tenant pays the
 * denials. The QosPolicy closes the gap by interposing on the
 * controller's PressureListener slot: it is constructed *after* the
 * governor (which attaches itself), re-attaches itself in the
 * governor's place, and delegates every hook to the governor — adding
 * tenant-aware admission in front:
 *
 *  - Inflation budgets: each tenant gets `inflation_budget`
 *    speculative-inflation admissions per scheduling round; past it the
 *    op is denied before the governor ever sees it (denial is always
 *    safe — the controller falls back exactly as for a governor
 *    denial). A hostile tenant burning inflation room is capped at its
 *    own budget instead of consuming the governor's global window.
 *
 *  - Admission shedding: the scheduler asks shedFraction(tenant)
 *    before applying each batch. Under pressure, tenants whose
 *    metadata-cache miss traffic (md_read_ops) exceeds 1.25 times
 *    their fair share are shed progressively — half their refs at
 *    elevated, 3/4 at critical, 7/8 at emergency. Well-behaved
 *    tenants are never shed: the misbehaver's load is clipped at the
 *    admission edge, not spread across the machine.
 *
 * The scheduler names the tenant whose batch is being applied via
 * setCurrentTenant(); all per-tenant attribution of listener calls
 * keys off that (the apply phase is serial by design, so a plain
 * member is race-free).
 */

#ifndef COMPRESSO_SERVICE_QOS_H
#define COMPRESSO_SERVICE_QOS_H

#include <vector>

#include "pressure/governor.h"
#include "service/tenant.h"

namespace compresso {

class QosPolicy : public PressureListener
{
  public:
    /** Re-attaches itself to @p mc in the governor's place; construct
     *  after the governor, detach (attachPressureListener(&gov) or
     *  nullptr) before destruction. */
    QosPolicy(TenantRegistry &reg, PressureGovernor &gov,
              MemoryController &mc);

    /** Tenant whose batch the scheduler is currently applying
     *  (kNoTenant outside the apply phase). */
    void setCurrentTenant(TenantId t) { current_ = t; }
    TenantId currentTenant() const { return current_; }

    /** Start a scheduling round: per-round windows reset. */
    void newRound();

    // --- PressureListener (delegates to the governor) ---
    bool onMachineOom(PageNum busy_page) override;
    bool admitOp(PressureOp op, uint64_t est_ops) override;
    void onOpCost(PressureOp op, uint64_t ops) override;

    // --- scheduler-side accounting ---
    /** Attribute @p ops metadata-cache miss device ops to @p t. */
    void noteMdOps(TenantId t, uint64_t ops);
    /** The scheduler shed @p refs of @p t's batch this round. */
    void noteShed(TenantId t, uint64_t refs);

    /** Fraction of @p t's next batch the scheduler should shed
     *  ([0, 1)); 0 for well-behaved tenants at any pressure level. */
    double shedFraction(TenantId t) const;

    uint64_t inflationDenied(TenantId t) const
    {
        return inflation_denied_[t];
    }
    uint64_t shedRefs(TenantId t) const { return shed_refs_[t]; }
    uint64_t mdOps(TenantId t) const { return md_ops_[t]; }

  private:
    TenantRegistry &reg_;
    PressureGovernor &gov_;
    TenantId current_ = kNoTenant;

    std::vector<uint64_t> inflation_used_;   ///< this round
    std::vector<uint64_t> inflation_denied_; ///< lifetime
    std::vector<uint64_t> md_ops_;           ///< lifetime
    std::vector<uint64_t> shed_refs_;        ///< lifetime
    uint64_t md_ops_total_ = 0;
};

} // namespace compresso

#endif // COMPRESSO_SERVICE_QOS_H

#include "service/qos.h"

namespace compresso {

namespace {

/** A tenant is "over budget" when its share of metadata-cache miss
 *  traffic exceeds its fair share times this factor. */
constexpr double kOverFactor = 1.25;

} // namespace

QosPolicy::QosPolicy(TenantRegistry &reg, PressureGovernor &gov,
                     MemoryController &mc)
    : reg_(reg), gov_(gov)
{
    size_t n = reg_.count();
    inflation_used_.assign(n, 0);
    inflation_denied_.assign(n, 0);
    md_ops_.assign(n, 0);
    shed_refs_.assign(n, 0);
    mc.attachPressureListener(this);
}

void
QosPolicy::newRound()
{
    std::fill(inflation_used_.begin(), inflation_used_.end(), 0);
}

bool
QosPolicy::onMachineOom(PageNum busy_page)
{
    return gov_.onMachineOom(busy_page);
}

bool
QosPolicy::admitOp(PressureOp op, uint64_t est_ops)
{
    if (op == PressureOp::kInflation && current_ != kNoTenant) {
        uint64_t budget = reg_.spec(current_).inflation_budget;
        if (inflation_used_[current_] >= budget) {
            ++inflation_denied_[current_];
            return false;
        }
        // Charge on admission intent: a governor denial below still
        // consumed a slot of the tenant's budget, which keeps a tenant
        // from retry-hammering the governor's global window.
        ++inflation_used_[current_];
    }
    return gov_.admitOp(op, est_ops);
}

void
QosPolicy::onOpCost(PressureOp op, uint64_t ops)
{
    gov_.onOpCost(op, ops);
}

void
QosPolicy::noteMdOps(TenantId t, uint64_t ops)
{
    md_ops_[t] += ops;
    md_ops_total_ += ops;
}

void
QosPolicy::noteShed(TenantId t, uint64_t refs)
{
    shed_refs_[t] += refs;
}

double
QosPolicy::shedFraction(TenantId t) const
{
    PressureLevel lvl = gov_.level();
    if (lvl == PressureLevel::kNormal || md_ops_total_ == 0)
        return 0.0;

    double fair = reg_.spec(t).mdcache_share;
    if (fair <= 0.0)
        fair = 1.0 / double(reg_.count());
    double share = double(md_ops_[t]) / double(md_ops_total_);
    if (share <= fair * kOverFactor)
        return 0.0;

    switch (lvl) {
    case PressureLevel::kElevated: return 0.5;
    case PressureLevel::kCritical: return 0.75;
    case PressureLevel::kEmergency: return 0.875;
    case PressureLevel::kNormal: break;
    }
    return 0.0;
}

} // namespace compresso

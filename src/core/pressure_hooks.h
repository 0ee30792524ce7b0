/**
 * @file
 * Memory-pressure hooks between the controllers and src/pressure/.
 *
 * The controllers only see these two small interfaces, so the core
 * library does not depend on the governor, the watchdog or the
 * service layer:
 *
 *  - PressureListener: machine-OOM rescue inside an allocation, and
 *    admission plus cost reporting for optional maintenance work
 *    (DESIGN.md §14). Implemented by PressureGovernor and QosPolicy.
 *  - PartitionPolicy: the balloon driver's guard against freeing a
 *    page outside the active tenant partition (DESIGN.md §17).
 *    Implemented by TenantRegistry.
 */

#ifndef COMPRESSO_CORE_PRESSURE_HOOKS_H
#define COMPRESSO_CORE_PRESSURE_HOOKS_H

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace compresso {

/** Classes of optional maintenance work, in Watchdog op_budget order. */
enum class PressureOp : uint8_t
{
    kRepack = 0,
    kRelocation,
    kMetaRebuild,
    kInflation,
    kCount
};

inline const char *
pressureOpName(PressureOp op)
{
    switch (op) {
    case PressureOp::kRepack: return "repack";
    case PressureOp::kRelocation: return "relocation";
    case PressureOp::kMetaRebuild: return "meta_rebuild";
    case PressureOp::kInflation: return "inflation";
    case PressureOp::kCount: break;
    }
    return "unknown";
}

class PressureListener
{
  public:
    virtual ~PressureListener() = default;

    /** An allocation found no free chunk while @p busy_page is being
     *  operated on. @return true if memory was released, so the
     *  caller should retry the allocation once. */
    virtual bool onMachineOom(PageNum busy_page) = 0;

    /** May optional work of class @p op, estimated at @p est_ops
     *  64 B device ops, run now? A denial is always safe. */
    virtual bool admitOp(PressureOp op, uint64_t est_ops) = 0;

    /** Actual device-op cost of a completed operation of class @p op. */
    virtual void onOpCost(PressureOp op, uint64_t ops) = 0;
};

class PartitionPolicy
{
  public:
    virtual ~PartitionPolicy() = default;

    /** May the balloon driver free @p page? */
    virtual bool mayFreePage(PageNum page) = 0;
};

} // namespace compresso

#endif // COMPRESSO_CORE_PRESSURE_HOOKS_H

/**
 * @file
 * Umbrella header: the full public BarrierPoint API.
 *
 * Typical use (the session facade, core/experiment.h):
 * @code
 *   bp::Experiment exp(bp::WorkloadSpec{.name = "npb-ft", .threads = 8});
 *   auto machine = bp::MachineConfig::cores8();
 *   const auto &run = exp.simulate(machine);   // profile -> analyze ->
 *                                              // warmup -> simulate
 *   use(run.estimate);
 * @endcode
 *
 * The stateless kernels Experiment calls (pipeline.h) stay public
 * for one-off stages and option sweeps.
 */

#ifndef BP_CORE_BARRIERPOINT_H
#define BP_CORE_BARRIERPOINT_H

#include "src/core/artifacts.h"
#include "src/core/experiment.h"
#include "src/core/kmeans.h"
#include "src/core/pipeline.h"
#include "src/core/reconstruction.h"
#include "src/core/selection.h"
#include "src/core/signature.h"
#include "src/sim/machine_config.h"
#include "src/sim/multicore_sim.h"
#include "src/workloads/registry.h"

#endif // BP_CORE_BARRIERPOINT_H

#pragma once

// Phantom capability modelling the sharded coordinator's window barrier.
//
// The Chandy–Misra style coordinator in sim/sharded_simulator alternates two
// phases: a serial *barrier* phase (on the coordinating thread: drain
// cut-crossing outboxes into the cut ledger, open the next conflict-free
// window) and a parallel *window* phase (per-shard engines advance
// independently on lane threads). Cross-shard state — the cut ledger, the
// outboxes, the resolution horizon — must only be touched
// while the engines it belongs to are stopped: in the serial barrier phase,
// or, for steps that touch one cell only (staging its outbox, probing its
// activity bound, arming its window), in that cell's lane between windows.
//
// There is no runtime lock enforcing that: the discipline is structural. The
// phantom capability below makes it compile-time checkable under clang
// -Wthread-safety: barrier-phase-only entry points carry
// RTMAC_REQUIRES(sim::shard_barrier), and the coordinator wraps its serial
// section — and a lane its cell-local steps — in a util::PhantomLock.
// Calling a barrier-phase method from the window phase (or any unannotated
// context) is a compile error in the clang CI lanes. Zero runtime cost
// everywhere.

#include "util/thread_annotations.hpp"

namespace rtmac::sim {

inline constinit util::PhantomCapability shard_barrier{};

}  // namespace rtmac::sim

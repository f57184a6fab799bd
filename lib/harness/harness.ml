(** Supervised batch execution (ISSUE 3 tentpole).

    The pieces, bottom-up:

    - {!Backoff}: exponential retry delays with deterministic jitter;
    - {!Breaker}: per-job-class circuit breaker
      (closed → open → half-open) with trips in the metrics registry;
    - {!Checkpoint}: fsync'd append-only line-JSON journal, the
      crash-safe record behind [--resume];
    - {!Worker}: one job in one forked process, wall-clock and memory
      watchdogs, exit status classified into a structured verdict;
    - {!Pool}: the one place workers are spawned, watched and reaped —
      submit, poll with a wait horizon, verdict callback; the batch
      supervisor and the compile daemon both drive it;
    - {!Supervisor}: the batch policy over the pool — retry, shed,
      degrade, checkpoint;
    - {!Trials}: seeded trials [i = f(seed, i)], in-process or as
      supervisor jobs — the engine under both campaigns.

    The same philosophy as the compiler it serves: treat each job as an
    open component characterized by its interactions (here: one
    marshaled result, one exit status), assume the environment can be
    hostile, and grade robustness instead of making it boolean. *)

module Backoff = Backoff
module Breaker = Breaker
module Checkpoint = Checkpoint
module Worker = Worker
module Pool = Pool
module Supervisor = Supervisor
module Trials = Trials

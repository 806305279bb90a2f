(** A fixed-size domain pool with an ordered [map] / [map_reduce] API and
    a process-wide helper-domain budget.

    Each call builds a pool of worker domains over a shared work queue
    (an atomic cursor into the input array) and a result-slot array
    indexed by input position. Workers pull the next unclaimed index and
    write into their own slot, so the output list has the same order and
    content as [List.map f xs] regardless of scheduling.

    [~jobs:1] (or a singleton/empty input) runs [f] sequentially on the
    calling domain — no domain is spawned — and is therefore behaviourally
    identical to [List.map f xs].

    [f] must not touch mutable state shared with other tasks: every task
    runs concurrently with the others when more than one domain runs. An
    exception raised by any task poisons the work queue: no domain claims
    further tasks (those already in flight finish), and after all workers
    have stopped the lowest-index failure among the tasks that ran is
    re-raised (with its backtrace) on the calling domain. *)

(** [default_jobs ()] is [Domain.recommended_domain_count () - 1], at
    least 1 — leave one core to the spawning domain's own bookkeeping. *)
val default_jobs : unit -> int

(** {1 The helper-domain budget}

    A process-wide atomic count of helper domains that may be spawned,
    initialized to [recommended_domain_count () - 1]. Callers that pick
    their own concurrency ({!map} without [~jobs]) {!claim} from it and
    clamp to the grant, so nesting composes: a default pool inside a
    pool worker finds the budget drained and runs sequentially instead
    of oversubscribing. Explicit requests are
    honored as asked but still debit the budget, clamping the defaults
    beneath them. Because every parallel construct in this codebase is
    outcome-deterministic for any domain count, dynamic clamping never
    changes results — only scheduling. *)

(** Helper domains currently grantable (never negative). *)
val budget : unit -> int

(** [claim ~max:n] atomically takes up to [n] helpers from the budget
    and returns how many were granted (0 when drained or [n <= 0]).
    Pair with {!release}. *)
val claim : max:int -> int

(** [claim_exact n] debits [n] helpers unconditionally — the budget may
    go negative (defaults then see zero). Used for explicit user
    requests. Pair with {!release}. *)
val claim_exact : int -> unit

(** [release n] returns [n] helpers to the budget. *)
val release : int -> unit

(** [with_budget n f] runs [f] with the budget set to [n], restoring the
    previous value afterwards (even on exception). The restore is
    race-safe: claims and releases made by other domains while [f] runs
    are preserved — the restore re-applies the original delta rather
    than overwriting the counter. *)
val with_budget : int -> (unit -> 'a) -> 'a

(** [map ?jobs f xs] — [List.map f xs], computed on several domains.
    With [~jobs:N] exactly [min N (length xs) - 1] helper domains are
    spawned (an explicit request); without, the helper count is whatever
    {!claim} grants, so the default composes under nesting. Values below
    1 are clamped to 1. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_reduce ?jobs ~map ~init ~reduce xs] — parallel [map] followed by
    an in-order left fold on the calling domain, so the reduction sees
    results in input order and needs no synchronisation of its own. *)
val map_reduce :
  ?jobs:int -> map:('a -> 'b) -> init:'acc -> reduce:('acc -> 'b -> 'acc) -> 'a list -> 'acc

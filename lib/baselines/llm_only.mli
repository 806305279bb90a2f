(** The LLM-only baseline (paper §8): ask GPT-4 for candidates and check
    them directly — no grammar, no search. A query is solved when any of
    the ~10 candidates, after templatization, validates on the I/O
    examples and passes bounded verification. Fast but inaccurate
    (the paper measures 44% of benchmarks, avg 1.62 attempts). *)

val label : string

val run : seed:int -> Stagg_benchsuite.Bench.t -> Stagg.Result_.t

(** [jobs] defaults to {!Stagg_util.Pool.default_jobs}; output order and
    content are independent of it (modulo [time_s]). *)
val run_suite :
  ?jobs:int ->
  seed:int ->
  Stagg_benchsuite.Bench.t list ->
  Stagg.Result_.t list

(** A set of 63-bit fingerprints: the A* searches' record of validated
    templates. *)

type t

val create : unit -> t
val mem : t -> int -> bool

(** [check_add t fp] tests membership and inserts when absent; returns
    [true] iff [fp] was already present. The test-and-set the dedup
    protocol needs. *)
val check_add : t -> int -> bool

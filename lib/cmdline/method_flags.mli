(** The method flag shared by the [stagg] CLI and the bench harness:
    [--oracle]. A bad value is a cmdliner usage error. *)

type t = { oracle : Stagg.Method_.oracle option  (** [None]: keep the method's own oracle *) }

val term : t Cmdliner.Term.t

(** [apply flags m] — [m] with the flags applied. The label is unchanged,
    so sweep outputs diff cleanly against default runs. *)
val apply : t -> Stagg.Method_.t -> Stagg.Method_.t

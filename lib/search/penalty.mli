(** The domain-specific penalty functions X(x) of §5.1 and §5.2.

    Five criteria for the top-down search (a1–a5) and two for the bottom-up
    search (b1–b2), individually switchable for the Table 2 ablations.
    Infinite penalties mean "never consider" — the searches drop such
    expressions instead of enqueueing them. *)

type criterion = A1 | A2 | A3 | A4 | A5 | B1 | B2

val all_topdown : criterion list
val all_bottomup : criterion list
val criterion_to_string : criterion -> string

type ctx = {
  dim_list : int list;  (** the predicted L, LHS included *)
  ops_available : Stagg_taco.Ast.op list;
      (** operators occurring in the candidate templates — the "operations
          defined in the grammar" of a5/b2 (operators the LLM never
          produced have probability 0 and are effectively undefined) *)
  grammar_has_const : bool;
  enabled : criterion list;
}

(** A context compiled for the search hot loop: criterion membership as
    flat bools, list lengths precomputed. Scoring with it is
    bit-identical to {!score} on the originating context. *)
type compiled

val compile : ctx -> compiled

(** [score_compiled k m ~program] — the total penalty X(x). [program] is
    the rebuilt template AST when [x] is complete ([None] on partials);
    a4's structural "same tensor under +,−,/" check needs it. *)
val score_compiled : compiled -> Node.metrics -> program:Stagg_taco.Ast.program option -> float

(** [score_key k key] — the same total from a push-side {!Node.child_key},
    with no program: bit-identical to [score_compiled ~program:None] on
    the metrics of the child the key describes. The A* scores incomplete
    children with it, before (and mostly instead of) building their
    annotation. *)
val score_key : compiled -> Node.child_key -> float

(** [score ctx m ~program] — [score_compiled] after a one-shot
    {!compile}; for tests and one-off calls. *)
val score : ctx -> Node.metrics -> program:Stagg_taco.Ast.program option -> float

(** Does {!score_compiled} ever read [~program]? Only a4 does; when it is
    disabled, scoring with [~program:None] is bit-identical to scoring
    with the rebuilt AST, so callers may skip the rebuild. *)
val needs_program : compiled -> bool

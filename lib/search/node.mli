(** Partial derivation trees: the states of both A* searches.

    A node is a parse tree whose frontier may contain unexpanded
    nonterminals ([Open]). Expansion rewrites the leftmost [Open] leaf by
    one grammar rule, exactly as in Algorithms 1 and 2. *)

open Stagg_grammar

type t =
  | Leaf of Cfg.term
  | Open of string  (** unexpanded nonterminal *)
  | Node of int * t list  (** applied rule id, children *)

val initial : Cfg.t -> t

(** Name of the leftmost unexpanded nonterminal, if any. *)
val leftmost_open : t -> string option

val is_complete : t -> bool

(** [expansions g x] — all single-step leftmost expansions, with the rule
    applied. Empty when [x] is complete. *)
val expansions : Cfg.t -> t -> (Cfg.rule * t) list

(** [expand1 x r] — the tree obtained by applying rule [r] at [x]'s
    leftmost open leaf (which must exist). Lets the searches keep
    (parent, rule) in the frontier and materialize child trees only when
    an entry is actually popped. *)
val expand1 : t -> Cfg.rule -> t

(** [g_cost p x] — the heuristic g(x): Σ over open leaves of −log₂ h(nt)
    (§5.1), accumulated left to right. 0 when complete. The searches use
    {!g_child}, which is float-for-float the same sum. *)
val g_cost : Pcfg.t -> t -> float

(** Expression depth as defined in §5.1: tensor/constant leaves (and open
    expression-valued leaves) have depth 1; a node of an expression-valued
    rule with ≥2 expression children adds 1; everything else is
    transparent. An O(tree) scan — the penalties never read it, so the
    top-down search computes it only on popped entries (the max-depth
    prune), not per push. *)
val depth : Cfg.t -> t -> int

(** Per-grammar tables for the canonical template fingerprint: a 63-bit
    polynomial hash of the rule-contribution sequence in
    leftmost-derivation (= preorder) order. Two complete trees of the
    same grammar have equal fingerprints iff their {!Stagg_taco.Pretty}
    canonical strings are equal, up to hash collisions (~2⁻⁶³ per pair) —
    rules contribute exactly their AST-carrying terminals plus a
    branching marker, and printing round-trips the AST. The A* [seen]
    probe keys on this instead of printed templates. *)
type fingerprints

(** Precompute the per-rule tables; O(grammar size), once per search. *)
val fingerprints : Cfg.t -> fingerprints

(** Full-tree fingerprint by preorder rescan. Agrees with the
    incrementally-maintained {!annotated}[.fp] on every tree built by
    leftmost expansion. *)
val fingerprint : fingerprints -> t -> int

(** Whether the grammar supports incrementally-maintained depth (see
    {!annotated}[.depth]): operator subtrees provably stay at depth 0,
    expression/tensor subtrees provably reach depth ≥1, and no
    tail/program nonterminal appears under an expression lhs — so each
    rule's contribution to {!depth} is a per-rule constant. Holds for
    every top-down grammar this project generates; the right-linear
    bottom-up grammars fail it (a TAIL's depth depends on where ε is
    taken), but the bottom-up search never prunes on depth. *)
val depth_static : fingerprints -> bool

(** Facts the penalty functions need, computable on partial trees. *)
type metrics = {
  tensor_leaves : (string * string list) list;
      (** tensor/const terminals in left-to-right order; [Const] appears as
          [("Const", \[\])] *)
  n_tensors : int;  (** length of [tensor_leaves] *)
  n_unique : int;
      (** distinct tensor symbols (Const counts once) — the quantity a
          dimension list has one entry per, hence the paper's "length" *)
  firsts_rev : string list;
      (** distinct non-Const tensor symbols, most recent first (reverse
          first-appearance order) *)
  sorted_firsts : bool;
      (** the first-appearance sequence of non-Const symbols is strictly
          sorted — the a3/b1 criterion, maintained in O(1) per leaf *)
  n_index_i : int;  (** leaves whose index list contains ["i"] (a1) *)
  has_const_leaf : bool;
  distinct_ops : Stagg_taco.Ast.op list;
  complete : bool;
}

val metrics : Cfg.t -> t -> metrics

(** Metrics plus the open leaves — count and ordered (left-to-right)
    nonterminal names — and the running fingerprint: what a popped A*
    entry is handled with, so no pop rescans the tree. An incomplete
    child's annotation is not built at push time — its frontier entry
    keeps the parent's annotation and the rule, scored through
    {!child_key} and {!g_child}, and the pop rebuilds it with
    {!expand_metrics}. [opens] and [fp] are maintained incrementally for
    every grammar: expansion always rewrites the leftmost open leaf, i.e.
    the list's head / the next preorder slot.

    [open_paths] pairs each open leaf with its branching-ancestor count
    (the number of {e depth-adding} rule applications on the path to the
    root), and [depth] carries {!val-depth} of the partial tree forward:
    for a {!depth_static} grammar a rule applied at an open with path
    count [p] yields depth [max parent (p' + 1)] whenever its rhs holds a
    depth-1 item, where [p'] adds the rule's own branch bit — letting the
    top-down search prune on depth without materializing or walking the
    popped tree. For non-static grammars both fields are still maintained
    (and [open_paths] still matches the full-scan walk over the same
    static tables), but [depth] may drift from {!val-depth} and must not
    be used. *)
type annotated = {
  metrics : metrics;
  n_open : int;
  opens : string list;
  open_paths : int list;
  depth : int;
  fp : int;
}

(** Full-scan annotation (the initial node, and the fallback). *)
val annotate : Cfg.t -> fingerprints -> t -> annotated

(** Does every rule hold at most one tensor/constant terminal, left of
    any nonterminal in its rhs? True for all grammars this project
    generates; precondition for [expand_metrics] and {!child_key}, the
    searches' one incremental path. Check once per search. *)
val incremental_safe : Cfg.t -> bool

(** [expand_metrics fps parent r] — the annotation of the tree obtained
    from [parent]'s tree by applying rule [r] at the leftmost open leaf,
    computed from [parent]'s annotation and [r]'s per-rule tables alone
    — {!child_key} plus the rule's list contributions, no child tree
    needed. The searches call it for
    complete children at push time and for every other entry at its
    pop. Requires an {!incremental_safe} grammar; the searches fall back
    to [annotate] on the materialized child otherwise. Equal
    to [annotate] on that child except that [distinct_ops] may list the
    same ops in a different first-appearance order (the penalties use
    only membership/length). *)
val expand_metrics : fingerprints -> annotated -> Cfg.rule -> annotated

(** The penalty inputs of a child — {!metrics} minus the lists: what
    {!Penalty.score_key} reads. A caller-owned scratch record, refilled
    per push by {!child_key}. *)
type child_key = {
  mutable ck_n_tensors : int;
  mutable ck_n_index_i : int;
  mutable ck_has_const : bool;
  mutable ck_n_unique : int;
  mutable ck_sorted_firsts : bool;
  mutable ck_n_ops : int;  (** length of [distinct_ops] *)
  mutable ck_complete : bool;
}

val child_key_create : unit -> child_key

(** [child_key fps parent rid k] fills [k] with the penalty inputs of the
    tree obtained by applying rule [rid] at [parent]'s leftmost open
    leaf, from [parent]'s annotation and per-rule tables alone: no
    allocation, no child tree, no child annotation. Equal field for field
    to [metrics] of that child. Requires an {!incremental_safe} grammar. *)
val child_key : fingerprints -> annotated -> int -> child_key -> unit

(** [child_completes fps parent rid] — [ck_complete] alone: applying
    [rid] closes [parent]'s last open leaf. *)
val child_completes : fingerprints -> annotated -> int -> bool

(** Per-search g(x) tables: −log₂ h of every rule's rhs nonterminals, in
    rhs order, and of every nonterminal. *)
type g_tables

val g_tables : Pcfg.t -> g_tables

(** [g_rest t parent] — the h-costs of [parent]'s opens after the head:
    the open leaves every child keeps. Once per pop. *)
val g_rest : g_tables -> annotated -> float array

(** [g_child t rest rid] — g(x) of the child applying rule [rid]: the
    rule's h-costs, then [rest], summed left to right. Float-for-float
    {!g_cost} on the materialized child. *)
val g_child : g_tables -> float array -> int -> float

(** [to_program g x] rebuilds the TACO template AST from a complete tree.
    [None] if [x] has open leaves or an unrecognized rule shape. *)
val to_program : Cfg.t -> t -> Stagg_taco.Ast.program option

(** [remove_tail g x] — Algorithm 2's RemoveTail: if every open leaf is a
    [Cat_tail] nonterminal with an ε rule, close them all and return the
    completed tree. [None] otherwise. *)
val remove_tail : Cfg.t -> t -> t option

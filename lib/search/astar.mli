(** The two weighted-A* template enumerators (paper Algorithms 1 and 2).

    Both maintain a priority queue of partial derivation trees ordered by
    f(x) = c(x) + g(x) + X(x), expand the leftmost nonterminal of the
    cheapest tree, and hand complete templates to a caller-supplied
    validator. Rules with probability 0 (cost ∞) and expressions with
    infinite penalty are never enqueued.

    An incomplete child is enqueued lazily: it is scored from
    {!Node.child_key} and {!Node.g_child} on its parent's annotation, its
    frontier entry holds the parent's tree and annotation plus the rule,
    and its own annotation is rebuilt ({!Node.expand_metrics}) only when
    it is popped. *)

type budget = {
  max_attempts : int;  (** validator calls before giving up *)
  max_expansions : int;  (** queue pops before giving up *)
  timeout_s : float;  (** wall-clock limit *)
}

val default_budget : budget

type stats = {
  attempts : int;
  expansions : int;  (** pops doing real work (entries and ghosts); excludes [suppressed] *)
  suppressed : int;
      (** admission-suppressed expansions: doomed complete children never
          enqueued, charged to the budget at their baseline pop position
          via the admission ledger. Budget caps and the timeout poll tick
          on [expansions + suppressed] (total baseline pops), so enabling
          pruning moves no stop point; see {!search_topdown}. *)
  frontier_peak : int;
      (** the largest frontier length the search reached. Deterministic
          (a function of the pop sequence alone), and a direct measure of
          how much the search retains: admission-suppressed children
          never count, ghosts do. *)
  elapsed_s : float;
}

(** Which limit ended an unsuccessful search: the deterministic caps
    (validator attempts, queue pops, frontier size) or the wall-clock
    backstop, polled every 64 pops — so a [Timeout] stop always reports
    an expansion count divisible by 64. *)
type stop_reason = Attempts | Expansions | Frontier | Timeout

val stop_reason_to_string : stop_reason -> string

type 'sol outcome =
  | Solved of 'sol * stats
  | Exhausted of stats  (** queue ran dry *)
  | Budget_exceeded of stop_reason * stats

val stats_of : 'sol outcome -> stats

(** Top-down search (Algorithm 1): validates templates when a complete
    tree is dequeued; trees deeper than [max_depth] (default 6, §5.1) are
    discarded. The [validate] callback receives the template AST and
    returns a solution to stop the search.

    Duplicate templates are validated once: the [seen] probe keys on
    {!Node.fingerprint} — O(1) per complete tree, no printing — and a
    complete child whose fingerprint has already been validated is
    pushed as a weightless ghost entry whose pop replays the duplicate's
    no-op, keeping attempt/expansion counts and pop order bit-identical.

    [?prune] enables analysis-guided pruning ({!Stagg_grammar.Prune}):
    a complete child whose template is provably a zero-substitution
    validation is never enqueued at all — no entry allocation, no
    frontier traffic. Its (f, tie-break sequence) key goes to a scalar
    side ledger, which the search drains in lockstep with the frontier
    so the suppressed pop's budget tick and observable dedup/attempt
    effects land at exactly the position the baseline pop would have.
    Solved/attempt outcomes are therefore byte-identical with pruning on
    or off — caps and the 64-pop clock poll bind on the same template —
    and only reported [expansions] (and time) drop. Top-down, it
    requires static depth tables ({!Node.depth_static}); silently off
    otherwise. *)
val search_topdown :
  pcfg:Stagg_grammar.Pcfg.t ->
  penalty_ctx:Penalty.ctx ->
  ?max_depth:int ->
  ?prune:Stagg_grammar.Prune.t ->
  budget:budget ->
  validate:(Stagg_taco.Ast.program -> 'sol option) ->
  unit ->
  'sol outcome

(** Bottom-up search (Algorithm 2): when a dequeued tree has exactly the
    predicted number of tensors, its trailing TAIL nonterminals are erased
    (RemoveTail) and the completed template is validated; expansion then
    continues regardless. [?prune] as in {!search_topdown}; the bottom-up
    penalties never read the rebuilt AST, so suppressed completions skip
    materialization entirely. *)
val search_bottomup :
  pcfg:Stagg_grammar.Pcfg.t ->
  penalty_ctx:Penalty.ctx ->
  dim_list:int list ->
  ?prune:Stagg_grammar.Prune.t ->
  budget:budget ->
  validate:(Stagg_taco.Ast.program -> 'sol option) ->
  unit ->
  'sol outcome

open Stagg_util
open Stagg_grammar

type budget = { max_attempts : int; max_expansions : int; timeout_s : float }

let default_budget = { max_attempts = 2_000; max_expansions = 200_000; timeout_s = 10. }

type stats = {
  attempts : int;
  expansions : int;
  suppressed : int;
  frontier_peak : int;
  elapsed_s : float;
}

type stop_reason = Attempts | Expansions | Frontier | Timeout

let stop_reason_to_string = function
  | Attempts -> "attempts"
  | Expansions -> "expansions"
  | Frontier -> "frontier"
  | Timeout -> "timeout"

type 'sol outcome =
  | Solved of 'sol * stats
  | Exhausted of stats
  | Budget_exceeded of stop_reason * stats

let stats_of = function Solved (_, s) | Exhausted s | Budget_exceeded (_, s) -> s

(* ---- the admission ledger ----

   Admission control at push time: a doomed complete child is never
   enqueued — no entry record, no annotation kept alive, no frontier
   traffic — but the pop the baseline would have spent on it must still
   tick the budget and the 64-pop clock poll AT ITS BASELINE POSITION,
   or the attempt/expansion caps would land on different templates (the
   suppressed child is pushed long before the baseline pops it, so
   counting it at push time front-loads the budget and stops the search
   on earlier pops than the baseline's — observably different attempts
   the moment a cap binds). The ledger keeps exactly the (f, seq) key of
   every suppressed child in a scalar min-heap over unboxed float/int
   arrays; the search drains it in lockstep with the frontier, charging
   [suppressed] (and replaying the doomed pop's observable dedup/attempt
   effects) precisely when (f, seq) says the baseline pop would have
   happened. Frontier and ledger share one sequence counter, so the
   interleaving — FIFO ties included — is the baseline's. *)
module Ledger = struct
  type t = {
    mutable prio : float array;
    mutable seq : int array;
    mutable fp : int array;
    mutable depth : int array;
    mutable nt : int array;
    mutable size : int;
  }

  let create () = { prio = [||]; seq = [||]; fp = [||]; depth = [||]; nt = [||]; size = 0 }
  let is_empty l = l.size = 0
  let length l = l.size
  let top_prio l = l.prio.(0)
  let top_seq l = l.seq.(0)

  let less l i j = l.prio.(i) < l.prio.(j) || (l.prio.(i) = l.prio.(j) && l.seq.(i) < l.seq.(j))

  let swap l i j =
    let fswap (a : float array) =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let iswap (a : int array) =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    fswap l.prio;
    iswap l.seq;
    iswap l.fp;
    iswap l.depth;
    iswap l.nt

  let grow l =
    let cap = Array.length l.prio in
    if l.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nf = Array.make ncap 0. in
      Array.blit l.prio 0 nf 0 l.size;
      l.prio <- nf;
      let ni a =
        let n = Array.make ncap 0 in
        Array.blit a 0 n 0 l.size;
        n
      in
      l.seq <- ni l.seq;
      l.fp <- ni l.fp;
      l.depth <- ni l.depth;
      l.nt <- ni l.nt
    end

  let push l ~prio ~seq ~fp ~depth ~nt =
    grow l;
    let i = ref l.size in
    l.prio.(!i) <- prio;
    l.seq.(!i) <- seq;
    l.fp.(!i) <- fp;
    l.depth.(!i) <- depth;
    l.nt.(!i) <- nt;
    l.size <- l.size + 1;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less l !i parent then begin
        swap l !i parent;
        i := parent
      end
      else continue_ := false
    done

  (* remove the minimum; returns (fp, depth, n_tensors) *)
  let pop l =
    let fp = l.fp.(0) and depth = l.depth.(0) and nt = l.nt.(0) in
    l.size <- l.size - 1;
    if l.size > 0 then begin
      l.prio.(0) <- l.prio.(l.size);
      l.seq.(0) <- l.seq.(l.size);
      l.fp.(0) <- l.fp.(l.size);
      l.depth.(0) <- l.depth.(l.size);
      l.nt.(0) <- l.nt.(l.size);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let lc = (2 * !i) + 1 and rc = (2 * !i) + 2 in
        let smallest = ref !i in
        if lc < l.size && less l lc !smallest then smallest := lc;
        if rc < l.size && less l rc !smallest then smallest := rc;
        if !smallest <> !i then begin
          swap l !smallest !i;
          i := !smallest
        end
        else continue_ := false
      done
    end;
    (fp, depth, nt)
end

(* A frontier element carries what the pop side needs to handle it.
   [Built] holds a tree, its annotation and (when complete) the rebuilt
   program. An incomplete child is pushed [Lazy]: the push scores it from
   the scalar child key ({!Node.child_key}, {!Node.g_child}) on its
   parent's annotation, and the entry holds only the rule id and the
   popped [parent] — tree, annotation, path cost and prune state — which
   all its siblings share. The pop, reached for a small fraction of pushed
   entries, rebuilds the child's annotation with the deterministic
   {!Node.expand_metrics}, its path cost and prune state the same way the
   push computed them, and applies the rule to the tree. The frontier is
   nearly all the memory a search retains, and every word saved per
   entry is also major-GC work saved.

   Complete children are [Built] at push time: the ghost and ledger
   decisions need their fingerprint, and their program is rebuilt once
   and carried to the pop. So is every child of a grammar that is not
   {!Node.incremental_safe}, annotated by a full scan.

   [Ghost] replays the pop of a complete duplicate of an
   already-validated template without carrying (or ever building) the
   tree: its pop only counts an expansion, exactly what the popped
   duplicate would have done. Doomed complete children never reach the
   frontier at all — see {!Ledger}. *)
type parent = { pc : float; ptree : Node.t; pann : Node.annotated; ppst : Prune.state }

type item =
  | Built of {
      c : float;  (** path cost c(x) *)
      tree : Node.t;
      ann : Node.annotated;
      program : Stagg_taco.Ast.program option;  (** Some iff complete *)
      pst : Prune.state;  (** analysis-prune state of the applied-rule multiset *)
    }
  | Lazy of { parent : parent; rule : int  (** applied at the parent's leftmost open leaf *) }
  | Ghost

let materialize g tree rule = if rule < 0 then tree else Node.expand1 tree (Cfg.rule g rule)

type 'sol engine = {
  pcfg : Pcfg.t;
  penalty : Penalty.compiled;
  budget : budget;
  validate : Stagg_taco.Ast.program -> 'sol option;
  frontier : item Pqueue.t;  (** priority f(x) *)
  sup : Ledger.t;  (** admission-suppressed (f, seq, fp, guards) keys *)
  seen_fp : Fpset.t;  (** validated templates, fingerprints *)
  pen_memo : (int, float) Hashtbl.t;
      (** fingerprint → penalty a complete template was pushed with; lets a
          duplicate's ghost reconstruct the same f without rescoring *)
  fps : Node.fingerprints;
  rule_cost : float array;  (** [Pcfg.cost] per rule, precomputed *)
  gt : Node.g_tables;  (** g(x) of a child from per-rule h-costs *)
  key : Node.child_key;  (** push-side scratch, refilled per child *)
  inc_safe : bool;  (** grammar admits incremental metrics *)
  prune : Prune.t option;  (** analysis-guided pruning *)
  started : float;
  mutable eseq : int;  (** push sequence shared by [frontier] and [sup] *)
  mutable attempts : int;
  mutable expansions : int;
  mutable suppressed : int;  (** ledger drains *)
  mutable frontier_peak : int;  (** largest [frontier] length reached *)
  mutable timed_out : bool;  (** latched by the periodic clock check *)
  mutable stop : stop_reason;  (** which limit fired, for [Budget_exceeded] *)
}

(* every push — frontier or ledger — consumes one sequence number, so
   the numbering is exactly the baseline's push order *)
let take_seq e =
  let s = e.eseq in
  e.eseq <- s + 1;
  s

let qpush e f item =
  Pqueue.push_seq e.frontier f (take_seq e) item;
  let n = Pqueue.length e.frontier in
  if n > e.frontier_peak then e.frontier_peak <- n

let make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune =
  let g = Pcfg.cfg pcfg in
  let x0 = Node.initial g in
  let rule_cost = Array.init (Cfg.size g) (fun id -> Pcfg.cost pcfg (Cfg.rule g id)) in
  let e =
    {
      pcfg;
      penalty = Penalty.compile penalty_ctx;
      budget;
      validate;
      frontier = Pqueue.create ~dummy:Ghost;
      sup = Ledger.create ();
      seen_fp = Fpset.create ();
      pen_memo = Hashtbl.create 64;
      fps;
      rule_cost;
      gt = Node.g_tables pcfg;
      key = Node.child_key_create ();
      inc_safe = Node.incremental_safe g;
      prune;
      started = Unix.gettimeofday ();
      eseq = 0;
      attempts = 0;
      expansions = 0;
      suppressed = 0;
      frontier_peak = 0;
      timed_out = false;
      stop = Expansions;
    }
  in
  qpush e 0.
    (Built { c = 0.; tree = x0; ann = Node.annotate g fps x0; program = None; pst = Prune.root });
  e

let elapsed e = Unix.gettimeofday () -. e.started

let stats e =
  {
    attempts = e.attempts;
    expansions = e.expansions;
    suppressed = e.suppressed;
    frontier_peak = e.frontier_peak;
    elapsed_s = elapsed e;
  }

(* The frontier is also capped: a queue of this size means the heuristic
   has stopped discriminating and memory would grow without bound. *)
let max_frontier = 1_500_000

(* The attempt/expansion/frontier checks are exact (they bound the
   deterministic outcome); the wall clock is only a backstop, so the
   [gettimeofday] syscall is polled every 64 pops and latched, keeping it
   out of the hot loop. *)
(* Budget accounting runs on TOTAL baseline pops — real expansions plus
   admission-suppressed ledger drains — so enabling the analysis prune
   moves no stop point: the tick sequence, and hence where a cap or the
   64-pop clock poll lands, is position-for-position the baseline's.
   Only the REPORTED expansion count shrinks. The frontier cap likewise
   counts ledger residents: the baseline holds every suppressed child in
   its queue, so the cap must see the same population. *)
let over_budget e =
  let pops = e.expansions + e.suppressed in
  if e.attempts >= e.budget.max_attempts then begin
    e.stop <- Attempts;
    true
  end
  else if pops >= e.budget.max_expansions then begin
    e.stop <- Expansions;
    true
  end
  else if Pqueue.length e.frontier + Ledger.length e.sup > max_frontier then begin
    e.stop <- Frontier;
    true
  end
  else begin
    if (not e.timed_out) && pops land 63 = 0 then
      e.timed_out <- elapsed e > e.budget.timeout_s;
    if e.timed_out then e.stop <- Timeout;
    e.timed_out
  end

(* Would the baseline's next pop be a suppressed (never-enqueued) child?
   Exact (f, seq) lexicographic comparison against the frontier head. *)
let baseline_pops_suppressed e =
  (not (Ledger.is_empty e.sup))
  && (Pqueue.is_empty e.frontier
     ||
     let sp = Ledger.top_prio e.sup and qp = Pqueue.top_prio e.frontier in
     sp < qp || (sp = qp && Ledger.top_seq e.sup < Pqueue.top_seq e.frontier))

(* Validate an already-rebuilt program. Duplicate templates — the EXPR OP
   EXPR rule makes the grammar ambiguous, and associative duplicates print
   identically — are validated once. The probe keys on the tree's
   fingerprint (O(1), no printing). *)
let try_validate e ~fp (program : Stagg_taco.Ast.program option) : 'sol option =
  match program with
  | None -> None
  | Some p ->
      if Fpset.check_add e.seen_fp fp then None
      else begin
        e.attempts <- e.attempts + 1;
        e.validate p
      end

let prune_step e pst (r : Cfg.rule) =
  match e.prune with None -> Prune.root | Some pr -> Prune.step pr pst r.id

(* Push a built child [x'] (rule -1) with its annotation and, when
   complete, its program. *)
let push_built e ~c ~pst ~g_x x' (ann : Node.annotated) program =
  let pen = Penalty.score_compiled e.penalty ann.Node.metrics ~program in
  if pen < infinity then begin
    if ann.Node.metrics.complete then
      Hashtbl.replace e.pen_memo ann.Node.fp pen;
    qpush e (c +. g_x +. pen) (Built { c; tree = x'; ann; program; pst })
  end

(* A complete child of an incremental-safe grammar, annotated from the
   parent's. It has no open leaves, so g(x) = 0. *)
let push_complete e g ~c' ~pst:parent_pst ~ann:(parent_ann : Node.annotated) px (r : Cfg.rule) =
  let ann = Node.expand_metrics e.fps parent_ann r in
  let ghost_pen =
    (* pre-probe duplicate suppressor: a complete child whose fingerprint
       has already been validated will be a dead pop, so push a ghost in
       its place — no tree, no program rebuild, no penalty rescore.
       [pen_memo] holds the penalty its first twin was pushed with (equal
       template ⇒ equal metrics and AST ⇒ equal penalty), making the
       ghost's f bit-identical to the suppressed entry's. *)
    if Fpset.mem e.seen_fp ann.Node.fp then
      Hashtbl.find_opt e.pen_memo ann.Node.fp
    else None
  in
  match ghost_pen with
  | Some pen -> qpush e (c' +. 0. +. pen) Ghost
  | None -> (
      let pst' = prune_step e parent_pst r in
      match e.prune with
      | Some _ when Prune.is_doomed pst' ->
          (* a DOOMED complete child — the analysis proved its validation
             enumerates zero substitutions — is never enqueued: its (f,
             seq) key goes to the ledger, which replays the pop's
             observable effects at its baseline position. The penalty is
             rescored the baseline way (rebuilding the program only if a
             criterion reads it) because f must be bit-identical, and
             [pen_memo] is still fed so later twins ghost exactly as
             before. Incomplete doomed children stay ordinary entries:
             their pops never validate anyway, and their children inherit
             the doomed state through [pst]. *)
          let program =
            if Penalty.needs_program e.penalty then Node.to_program g (Node.expand1 px r) else None
          in
          let pen = Penalty.score_compiled e.penalty ann.Node.metrics ~program in
          if pen < infinity then begin
            Hashtbl.replace e.pen_memo ann.Node.fp pen;
            Ledger.push e.sup ~prio:(c' +. 0. +. pen) ~seq:(take_seq e) ~fp:ann.Node.fp
              ~depth:ann.Node.depth ~nt:ann.Node.metrics.n_tensors
          end
      | _ ->
          let x' = Node.expand1 px r in
          push_built e ~c:c' ~pst:pst' ~g_x:0. x' ann (Node.to_program g x'))

(* Push every legal one-step expansion of the popped entry (whose tree [px]
   the pop side has just materialized). An incomplete child is scored
   from the scalar child key and pushed lazily, as (parent tree, parent
   annotation, rule); g(x) sums the rule's h-costs and the parent's
   remaining opens, whose costs are looked up once per pop. *)
let push_expansions e (g : Cfg.t) ~c:parent_c ~ann:(parent_ann : Node.annotated) ~pst:parent_pst
    (px : Node.t) =
  match parent_ann.Node.opens with
  | [] -> ()
  | nt :: _ ->
      let rest = if e.inc_safe then Node.g_rest e.gt parent_ann else [||] in
      let parent = { pc = parent_c; ptree = px; pann = parent_ann; ppst = parent_pst } in
      List.iter
        (fun (r : Cfg.rule) ->
          let rc = e.rule_cost.(r.id) in
          if rc < infinity then begin
            let c' = parent_c +. rc in
            if not e.inc_safe then begin
              let x' = Node.expand1 px r in
              let ann = Node.annotate g e.fps x' in
              let program = if ann.Node.metrics.complete then Node.to_program g x' else None in
              push_built e ~c:c' ~pst:(prune_step e parent_pst r) ~g_x:(Node.g_cost e.pcfg x') x'
                ann program
            end
            else if Node.child_completes e.fps parent_ann r.id then
              push_complete e g ~c' ~pst:parent_pst ~ann:parent_ann px r
            else begin
              Node.child_key e.fps parent_ann r.id e.key;
              let pen = Penalty.score_key e.penalty e.key in
              if pen < infinity then
                qpush e (c' +. Node.g_child e.gt rest r.id +. pen) (Lazy { parent; rule = r.id })
            end
          end)
        (Cfg.rules_for g nt)

(* A ledger drain replays what the baseline pop of the suppressed entry
   would have observably done: count the attempt and mark the template
   seen the first time it survives the same guards (the TD depth prune /
   the BU tensor-count gate) — validating it was a structural no-op. *)
let replay_suppressed e ~fp =
  if not (Fpset.check_add e.seen_fp fp) then e.attempts <- e.attempts + 1

(* The pop loop shared by both searches: drain the ledger and the
   frontier in merged (f, seq) order, charging the budget before every
   pop. [on_suppressed] replays a ledger drain's guard; [on_entry]
   performs a real pop — of [tree] itself when [rule < 0], else of the
   child applying [rule] to it — and returns [Some sol] to stop. *)
let run e ~on_suppressed ~on_entry =
  let rec loop () =
    if over_budget e then Budget_exceeded (e.stop, stats e)
    else if baseline_pops_suppressed e then begin
      let fp, depth, nt = Ledger.pop e.sup in
      e.suppressed <- e.suppressed + 1;
      on_suppressed ~fp ~depth ~nt;
      loop ()
    end
    else
      match Pqueue.pop e.frontier with
      | None -> Exhausted (stats e)
      | Some (_, it) -> (
          e.expansions <- e.expansions + 1;
          match it with
          | Ghost -> loop ()
          | Built { c; tree; ann; program; pst } -> (
              match on_entry ~c ~tree ~rule:(-1) ~ann ~program ~pst with
              | Some sol -> Solved (sol, stats e)
              | None -> loop ())
          | Lazy { parent = p; rule } -> (
              let r = Cfg.rule (Pcfg.cfg e.pcfg) rule in
              match
                on_entry ~c:(p.pc +. e.rule_cost.(rule)) ~tree:p.ptree ~rule
                  ~ann:(Node.expand_metrics e.fps p.pann r) ~program:None ~pst:(prune_step e p.ppst r)
              with
              | Some sol -> Solved (sol, stats e)
              | None -> loop ()))
  in
  loop ()

let search_topdown ~pcfg ~penalty_ctx ?(max_depth = 6) ?prune ~budget ~validate () =
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  (* with static depth tables the prune reads the annotation, so depth-dead
     pops never materialize (or walk) their tree at all *)
  let inc_depth = Node.depth_static fps in
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune in
  (* a ledger drain replays the depth guard from the annotation's depth,
     which must equal the walked depth, so analysis pruning rides on the
     same static tables *)
  let e = if inc_depth then e else { e with prune = None } in
  let too_deep (ann : Node.annotated) tree rule =
    if inc_depth then ann.Node.depth > max_depth
    else Node.depth g (materialize g tree rule) > max_depth
  in
  run e
    ~on_suppressed:(fun ~fp ~depth ~nt:_ -> if depth <= max_depth then replay_suppressed e ~fp)
    ~on_entry:(fun ~c ~tree ~rule ~ann ~program ~pst ->
      if too_deep ann tree rule then None
      else if ann.Node.metrics.complete then try_validate e ~fp:ann.Node.fp program
      else begin
        push_expansions e g ~c ~ann ~pst (materialize g tree rule);
        None
      end)

let search_bottomup ~pcfg ~penalty_ctx ~dim_list ?prune ~budget ~validate () =
  let g = Pcfg.cfg pcfg in
  let fps = Node.fingerprints g in
  let e = make_engine ~pcfg ~fps ~penalty_ctx ~budget ~validate ~prune in
  let n_predicted = List.length dim_list in
  run e
    ~on_suppressed:(fun ~fp ~depth:_ ~nt ->
      (* the baseline pop validates (a no-op here) only when the
         complete tree carries exactly the predicted tensor count *)
      if nt = n_predicted then replay_suppressed e ~fp)
    ~on_entry:(fun ~c ~tree ~rule ~ann ~program:_ ~pst ->
      let x = materialize g tree rule in
      let solved =
        if ann.Node.metrics.n_tensors = n_predicted then
          match Node.remove_tail g x with
          (* closing ε tails adds empty rule contributions, so the
             completed tree's fingerprint equals the popped entry's *)
          | Some complete -> try_validate e ~fp:ann.Node.fp (Node.to_program g complete)
          | None -> None
        else None
      in
      if Option.is_none solved then push_expansions e g ~c ~ann ~pst x;
      solved)

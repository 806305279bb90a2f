open Stagg_grammar
module Ast = Stagg_taco.Ast

type t = Leaf of Cfg.term | Open of string | Node of int * t list

let initial g = Open (Cfg.start g)

let rec leftmost_open = function
  | Open nt -> Some nt
  | Leaf _ -> None
  | Node (_, ch) -> List.find_map leftmost_open ch

let is_complete x = leftmost_open x = None

let apply_rule (r : Cfg.rule) =
  Node (r.id, List.map (function Cfg.NT n -> Open n | Cfg.T t -> Leaf t) r.rhs)

(* Substitute the leftmost Open leaf with [repl] ([repl] is a fresh
   node, never physically equal to the leaf). A subtree without an Open
   leaf comes back physically unchanged, so only the path to the leaf is
   rebuilt. *)
let rec subst_leftmost x repl =
  match x with
  | Open _ -> repl
  | Leaf _ -> x
  | Node (id, ch) ->
      let ch' = subst_children ch repl in
      if ch' == ch then x else Node (id, ch')

and subst_children ch repl =
  match ch with
  | [] -> ch
  | c :: rest ->
      let c' = subst_leftmost c repl in
      if c' != c then c' :: rest
      else
        let rest' = subst_children rest repl in
        if rest' == rest then ch else c :: rest'

let expand1 x (r : Cfg.rule) =
  let x' = subst_leftmost x (apply_rule r) in
  assert (x' != x);
  x'

let expansions g x =
  match leftmost_open x with
  | None -> []
  | Some nt -> List.map (fun (r : Cfg.rule) -> (r, expand1 x r)) (Cfg.rules_for g nt)

(* Flat left-to-right accumulation over the open leaves: closed leaves
   thread the accumulator through unchanged, so this is float-for-float
   the same computation as folding over the ordered open-leaf list —
   the invariant [g_child] relies on. *)
let g_cost p x =
  let rec go acc = function
    | Leaf _ -> acc
    | Open nt -> acc +. Pcfg.h_cost p nt
    | Node (_, ch) -> List.fold_left go acc ch
  in
  go 0. x

let rec depth g = function
  | Leaf (Cfg.Tok_tensor _ | Cfg.Tok_const) -> 1
  | Leaf _ -> 0
  | Open nt -> (
      match Cfg.category g nt with
      | Cfg.Cat_expr | Cfg.Cat_tensor -> 1
      | Cfg.Cat_program | Cfg.Cat_op | Cfg.Cat_tail -> 0)
  | Node (rid, ch) ->
      (* allocation-free child fold: max depth and how many children carry
         expression depth (this runs once per queue pop) *)
      let m = ref 0 and expr_children = ref 0 in
      List.iter
        (fun c ->
          let d = depth g c in
          if d > !m then m := d;
          if d >= 1 then incr expr_children)
        ch;
      if Cfg.rule_lhs_cat g rid = Cfg.Cat_expr && !expr_children >= 2 then 1 + !m else !m

(* ---- canonical template fingerprints ----

   A 63-bit polynomial rolling hash over the sequence of per-rule
   contributions read off in leftmost-derivation order. A leftmost
   derivation creates internal nodes exactly in preorder, so the hash can
   be maintained incrementally: applying rule [r] to any partial tree
   maps fingerprint [fp] to [fp * mult(r) + addend(r)], and that equals
   the full preorder rescan of the child tree.

   A rule's contribution encodes what the rule adds to the template's
   *concrete syntax*: the AST-carrying terminals of its rhs
   (tensor/const/op/neg), prefixed by a branching marker when the rhs has
   ≥2 nonterminals. Assign and paren tokens, unit rules and ε rules
   contribute nothing. [Pretty] prints right operands of equal precedence
   parenthesized, so printing round-trips the AST exactly; the marker
   separates the one remaining ambiguity (associativity: both parse trees
   of [b + c + d] list the same tokens but print differently). Hence two
   complete trees print equally iff their contribution sequences are
   equal, i.e. iff their fingerprints collide only with hash probability
   ~2⁻⁶³ (audited in the test suite). *)

type rule_leaf =
  | No_leaf
  | Const_leaf  (** the [Tok_const] terminal *)
  | Tensor_leaf of (string * string list) * bool
      (** the leaf as [tensor_leaves] lists it; its index list mentions ["i"] *)

type fingerprints = {
  mult : int array;
  addend : int array;
  (* §5.1 depth tables, per rule (valid when [depth_static]):
     [d_branch] — applying the rule adds one to the expression depth of
     everything below it (lhs is an expression and the rhs carries ≥2
     depth-bearing children); [d_gain] — the rhs itself introduces a
     depth-1 item (tensor/const terminal, or an expression/tensor
     nonterminal, whose subtrees always reach depth ≥1). *)
  d_branch : bool array;
  d_gain : bool array;
  depth_static : bool;
  (* child-key tables, per rule: the rhs nonterminals in order and their
     count, the tensor/const terminal it adds (at most one in an
     [incremental_safe] grammar), and the distinct operators it adds
     ([Tok_neg] counts as [Sub], as in [metrics]) *)
  r_nts : string list array;
  r_n_nt : int array;
  r_leaf : rule_leaf array;
  r_ops : Ast.op list array;
}

let depth_static fps = fps.depth_static

(* All constants fit OCaml's 63-bit native int. *)
let fp_k = 0x2545f4914f6cdd1d

let fp_mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545f4914f6cdd1d in
  let h = h lxor (h lsr 27) in
  let h = h * 0x27d4eb2f165667c5 in
  h lxor (h lsr 31)

let fp_seed = fp_mix 0x51a6617f
let fp_branch = fp_mix 0x5eed0a11

(* Token hashes come from the token's own spelling (plus a constructor
   tag: [Tok_neg] and [Tok_op Sub] both print "-"), not [Hashtbl.hash],
   whose 30-bit range would make cross-token collisions plausible. *)
let fp_token tag s =
  let h = ref (0x27d4eb2f + tag) in
  String.iter (fun ch -> h := (!h * 0x100000001b3) lxor Char.code ch) s;
  fp_mix !h

let rule_contribution (r : Cfg.rule) =
  let n_nt =
    List.fold_left (fun a s -> match s with Cfg.NT _ -> a + 1 | Cfg.T _ -> a) 0 r.rhs
  in
  let toks =
    List.filter_map
      (function
        | Cfg.T (Cfg.Tok_tensor _ as t) -> Some (fp_token 1 (Cfg.term_to_string t))
        | Cfg.T Cfg.Tok_const -> Some (fp_token 2 "Const")
        | Cfg.T (Cfg.Tok_op op) -> Some (fp_token 3 (Ast.op_to_string op))
        | Cfg.T Cfg.Tok_neg -> Some (fp_token 4 "-")
        | Cfg.T (Cfg.Tok_assign | Cfg.Tok_lparen | Cfg.Tok_rparen) | Cfg.NT _ -> None)
      r.rhs
  in
  if n_nt >= 2 then fp_branch :: toks else toks

let rhs_nts (r : Cfg.rule) = List.filter_map (function Cfg.NT n -> Some n | Cfg.T _ -> None) r.rhs

let fingerprints g =
  let n = Cfg.size g in
  let mult = Array.make n 1 and addend = Array.make n 0 in
  let d_branch = Array.make n false and d_gain = Array.make n false in
  let static = ref true in
  for id = 0 to n - 1 do
    let r = Cfg.rule g id in
    let m, a =
      List.fold_left (fun (m, a) v -> (m * fp_k, (a * fp_k) + v)) (1, 0) (rule_contribution r)
    in
    mult.(id) <- m;
    addend.(id) <- a;
    (* [deep] counts rhs items whose subtree always reaches depth ≥1:
       tensor/const terminals, and expression/tensor nonterminals (whose
       invariant is checked below). Everything the count treats as 0 must
       provably stay 0 (operator subtrees) or never occur where it matters
       (tail/program nonterminals under an expression lhs) — otherwise the
       grammar is flagged non-static and searches fall back to [depth]. *)
    let lhs_cat = Cfg.category g r.lhs in
    let deep = ref 0 in
    List.iter
      (fun sym ->
        match sym with
        | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) -> incr deep
        | Cfg.T _ -> ()
        | Cfg.NT nt -> (
            match Cfg.category g nt with
            | Cfg.Cat_expr | Cfg.Cat_tensor -> incr deep
            | Cfg.Cat_op -> ()
            | Cfg.Cat_tail | Cfg.Cat_program ->
                if lhs_cat = Cfg.Cat_expr then static := false))
      r.rhs;
    d_gain.(id) <- !deep >= 1;
    d_branch.(id) <- lhs_cat = Cfg.Cat_expr && !deep >= 2;
    (match lhs_cat with
    | Cfg.Cat_expr | Cfg.Cat_tensor ->
        (* every expression/tensor expansion must keep a depth-1 item below *)
        if !deep = 0 then static := false
    | Cfg.Cat_op ->
        (* operator subtrees must never grow depth *)
        if
          List.exists
            (function
              | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) -> true
              | Cfg.T _ -> false
              | Cfg.NT nt -> Cfg.category g nt <> Cfg.Cat_op)
            r.rhs
        then static := false
    | Cfg.Cat_program | Cfg.Cat_tail -> ())
  done;
  let rules = Cfg.rules g in
  let r_nts = Array.map rhs_nts rules in
  let r_leaf =
    Array.map
      (fun (r : Cfg.rule) ->
        match
          List.find_map
            (function
              | Cfg.T (Cfg.Tok_tensor (n, idxs)) -> Some (Tensor_leaf ((n, idxs), List.mem "i" idxs))
              | Cfg.T Cfg.Tok_const -> Some Const_leaf
              | Cfg.T _ | Cfg.NT _ -> None)
            r.rhs
        with
        | Some l -> l
        | None -> No_leaf)
      rules
  in
  let r_ops =
    Array.map
      (fun (r : Cfg.rule) ->
        List.fold_left
          (fun acc sym ->
            match sym with
            | Cfg.T (Cfg.Tok_op op) when not (List.mem op acc) -> acc @ [ op ]
            | Cfg.T Cfg.Tok_neg when not (List.mem Ast.Sub acc) -> acc @ [ Ast.Sub ]
            | Cfg.T _ | Cfg.NT _ -> acc)
          [] r.rhs)
      rules
  in
  {
    mult;
    addend;
    d_branch;
    d_gain;
    depth_static = !static;
    r_nts;
    r_n_nt = Array.map List.length r_nts;
    r_leaf;
    r_ops;
  }

let rec fp_scan fps acc = function
  | Leaf _ | Open _ -> acc
  | Node (id, ch) -> List.fold_left (fp_scan fps) ((acc * fps.mult.(id)) + fps.addend.(id)) ch

let fingerprint fps x = fp_scan fps fp_seed x

type metrics = {
  tensor_leaves : (string * string list) list;
  n_tensors : int;
  n_unique : int;
  firsts_rev : string list;
  sorted_firsts : bool;
  n_index_i : int;
  has_const_leaf : bool;
  distinct_ops : Ast.op list;
  complete : bool;
}

(* Shared accumulator for the full scan and the incremental extension, so
   the two agree field for field. Leaves must be fed left to right. *)
type macc = {
  mutable m_tensors : (string * string list) list;  (** reversed *)
  mutable m_n_tensors : int;
  mutable m_firsts : string list;  (** reversed *)
  mutable m_sorted : bool;
  mutable m_n_index_i : int;
  mutable m_has_const : bool;  (** a [Tok_const] leaf was seen *)
  mutable m_const_sym : bool;  (** the symbol "Const" was seen (leaf or tensor) *)
  mutable m_n_unique : int;
}

let const_leaf = ("Const", [])

let macc_add_leaf a n idxs =
  a.m_tensors <- (n, idxs) :: a.m_tensors;
  a.m_n_tensors <- a.m_n_tensors + 1;
  if List.mem "i" idxs then a.m_n_index_i <- a.m_n_index_i + 1;
  if String.equal n "Const" then begin
    (* Const does not participate in the alphabetical-order criterion and
       counts once toward [n_unique], whether it came from the dedicated
       terminal or a pathological tensor of that name *)
    if not a.m_const_sym then begin
      a.m_const_sym <- true;
      a.m_n_unique <- a.m_n_unique + 1
    end
  end
  else if not (List.mem n a.m_firsts) then begin
    (match a.m_firsts with
    | [] -> ()
    | prev :: _ -> if String.compare prev n >= 0 then a.m_sorted <- false);
    a.m_firsts <- n :: a.m_firsts;
    a.m_n_unique <- a.m_n_unique + 1
  end

let metrics _g x =
  (* single left-to-right scan over the frontier *)
  let a =
    {
      m_tensors = [];
      m_n_tensors = 0;
      m_firsts = [];
      m_sorted = true;
      m_n_index_i = 0;
      m_has_const = false;
      m_const_sym = false;
      m_n_unique = 0;
    }
  in
  let ops = ref [] in
  let complete = ref true in
  let rec scan = function
    | Open _ -> complete := false
    | Leaf (Cfg.Tok_tensor (n, idxs)) -> macc_add_leaf a n idxs
    | Leaf Cfg.Tok_const ->
        macc_add_leaf a "Const" [];
        a.m_has_const <- true
    | Leaf (Cfg.Tok_op op) -> if not (List.mem op !ops) then ops := op :: !ops
    | Leaf Cfg.Tok_neg -> if not (List.mem Ast.Sub !ops) then ops := Ast.Sub :: !ops
    | Leaf (Cfg.Tok_assign | Cfg.Tok_rparen | Cfg.Tok_lparen) -> ()
    | Node (_, ch) -> List.iter scan ch
  in
  scan x;
  {
    tensor_leaves = List.rev a.m_tensors;
    n_tensors = a.m_n_tensors;
    n_unique = a.m_n_unique;
    firsts_rev = a.m_firsts;
    sorted_firsts = a.m_sorted;
    n_index_i = a.m_n_index_i;
    has_const_leaf = a.m_has_const;
    distinct_ops = List.rev !ops;
    complete = !complete;
  }

(* ---- incrementally-maintained metrics ----

   [metrics] is a full tree scan. Both searches used to rescan at every
   push (and the bottom-up one again at every pop); the scans are the
   search's hot loop. Expansion always rewrites the *leftmost* [Open]
   leaf, and in every grammar this project generates no tensor/constant
   terminal appears to the right of a nonterminal within one rule's rhs —
   so every tensor leaf of a reachable tree lies left of its leftmost
   [Open], and a child's [tensor_leaves] is exactly the parent's with the
   applied rule's tensor terminals appended. [expand_metrics] exploits
   that; [incremental_safe] checks the grammar-level precondition once so
   exotic grammars fall back to the full scan. *)

type annotated = {
  metrics : metrics;
  n_open : int;
  opens : string list;
  open_paths : int list;
  depth : int;
  fp : int;
}

let collect_opens x =
  let rec go acc = function
    | Open nt -> nt :: acc
    | Leaf _ -> acc
    | Node (_, ch) -> List.fold_left go acc ch
  in
  List.rev (go [] x)

(* Branching-ancestor count per open leaf, in the same left-to-right order
   as [collect_opens]. For a depth-static grammar, the depth of a partial
   tree is the max over "candidates": each tensor/const leaf and each
   expression/tensor open contributes its path count + 1, so the stored
   [depth] can be pushed forward one rule application at a time. *)
let collect_open_paths fps x =
  let rec go p acc = function
    | Open _ -> p :: acc
    | Leaf _ -> acc
    | Node (id, ch) ->
        let p = if fps.d_branch.(id) then p + 1 else p in
        List.fold_left (go p) acc ch
  in
  List.rev (go 0 [] x)

let annotate g fps x =
  let opens = collect_opens x in
  {
    metrics = metrics g x;
    n_open = List.length opens;
    opens;
    open_paths = collect_open_paths fps x;
    depth = depth g x;
    fp = fingerprint fps x;
  }

(* Tensor/constant terminals sit left of every nonterminal, and there is
   at most one of them: then the child key ([child_key]) is the parent's
   facts plus one table-driven leaf. *)
let rule_safe (r : Cfg.rule) =
  let rec go seen_nt seen_leaf = function
    | [] -> true
    | Cfg.NT _ :: rest -> go true seen_leaf rest
    | Cfg.T (Cfg.Tok_tensor _ | Cfg.Tok_const) :: rest ->
        (not seen_nt) && (not seen_leaf) && go seen_nt true rest
    | Cfg.T _ :: rest -> go seen_nt seen_leaf rest
  in
  go false false r.rhs

let incremental_safe g = Array.for_all rule_safe (Cfg.rules g)

(* ---- the push-side child key ----

   A pushed child needs only its f-value: the penalty inputs and g(x).
   Both follow from the parent's annotation and per-rule tables in
   scalars, so an incomplete child is scored without building its
   annotation; the pop rebuilds that with [expand_metrics]. *)

type child_key = {
  mutable ck_n_tensors : int;
  mutable ck_n_index_i : int;
  mutable ck_has_const : bool;
  mutable ck_n_unique : int;
  mutable ck_sorted_firsts : bool;
  mutable ck_n_ops : int;
  mutable ck_complete : bool;
}

let child_key_create () =
  {
    ck_n_tensors = 0;
    ck_n_index_i = 0;
    ck_has_const = false;
    ck_n_unique = 0;
    ck_sorted_firsts = true;
    ck_n_ops = 0;
    ck_complete = false;
  }

let child_completes fps (parent : annotated) rid = parent.n_open - 1 + fps.r_n_nt.(rid) = 0

(* top-level, so the per-push count allocates no closure *)
let rec count_new_ops parent_ops acc = function
  | [] -> acc
  | op :: rest -> count_new_ops parent_ops (if List.mem op parent_ops then acc else acc + 1) rest

(* the symbol "Const" counts once toward [n_unique], as in [macc_add_leaf] *)
let add_const_sym (pm : metrics) k =
  let const_sym = pm.n_unique > List.length pm.firsts_rev in
  if not const_sym then k.ck_n_unique <- pm.n_unique + 1

(* [macc_add_leaf] on scalars, for the rule's one table-driven leaf *)
let child_key fps (parent : annotated) rid k =
  let pm = parent.metrics in
  k.ck_n_tensors <- pm.n_tensors;
  k.ck_n_index_i <- pm.n_index_i;
  k.ck_has_const <- pm.has_const_leaf;
  k.ck_n_unique <- pm.n_unique;
  k.ck_sorted_firsts <- pm.sorted_firsts;
  (match fps.r_leaf.(rid) with
  | No_leaf -> ()
  | Const_leaf ->
      k.ck_n_tensors <- pm.n_tensors + 1;
      k.ck_has_const <- true;
      add_const_sym pm k
  | Tensor_leaf ((n, _), has_i) ->
      k.ck_n_tensors <- pm.n_tensors + 1;
      if has_i then k.ck_n_index_i <- pm.n_index_i + 1;
      if String.equal n "Const" then add_const_sym pm k
      else if not (List.mem n pm.firsts_rev) then begin
        (match pm.firsts_rev with
        | prev :: _ when String.compare prev n >= 0 -> k.ck_sorted_firsts <- false
        | _ -> ());
        k.ck_n_unique <- pm.n_unique + 1
      end);
  k.ck_n_ops <- count_new_ops pm.distinct_ops (List.length pm.distinct_ops) fps.r_ops.(rid);
  k.ck_complete <- child_completes fps parent rid

let rec prepend_n n x acc = if n = 0 then acc else prepend_n (n - 1) x (x :: acc)

(* A child's annotation: the scalar facts from [child_key], the lists
   from the rule's tables — its one leaf appended, its nonterminals
   prepended to the parent's remaining opens. *)
let expand_metrics fps (parent : annotated) (r : Cfg.rule) : annotated =
  let rid = r.id in
  let pm = parent.metrics in
  let k = child_key_create () in
  child_key fps parent rid k;
  let tensor_leaves, firsts_rev =
    match fps.r_leaf.(rid) with
    | No_leaf -> (pm.tensor_leaves, pm.firsts_rev)
    | Const_leaf -> (pm.tensor_leaves @ [ const_leaf ], pm.firsts_rev)
    | Tensor_leaf (((n, _) as leaf), _) ->
        ( pm.tensor_leaves @ [ leaf ],
          if String.equal n "Const" || List.mem n pm.firsts_rev then pm.firsts_rev
          else n :: pm.firsts_rev )
  in
  (* first-appearance order may differ from a fresh scan when an op
     terminal sits right of a nonterminal (EXPR -> EXPR op EXPR); the
     penalties only use membership and length, which agree *)
  let distinct_ops =
    List.fold_left
      (fun acc op -> if List.mem op acc then acc else acc @ [ op ])
      pm.distinct_ops fps.r_ops.(rid)
  in
  let head_path, rest_opens, rest_paths =
    match (parent.opens, parent.open_paths) with
    | _ :: ro, p :: rp -> (p, ro, rp)
    | _ -> assert false
  in
  (* path count of the node the rule creates (it replaces the head open) *)
  let p' = if fps.d_branch.(rid) then head_path + 1 else head_path in
  {
    metrics =
      {
        tensor_leaves;
        n_tensors = k.ck_n_tensors;
        n_unique = k.ck_n_unique;
        firsts_rev;
        sorted_firsts = k.ck_sorted_firsts;
        n_index_i = k.ck_n_index_i;
        has_const_leaf = k.ck_has_const;
        distinct_ops;
        complete = k.ck_complete;
      };
    n_open = parent.n_open - 1 + fps.r_n_nt.(rid);
    (* expansion rewrites the leftmost open leaf — the head of
       [parent.opens] — so the child's ordered open list is the rule's
       nonterminals followed by the parent's remaining opens *)
    opens = (match fps.r_nts.(rid) with [] -> rest_opens | nts -> nts @ rest_opens);
    open_paths = prepend_n fps.r_n_nt.(rid) p' rest_paths;
    (* only depth-1 items can raise the max: a weight-0 candidate sits at
       p' ≤ parent.depth (the expanded open's own candidate bounded it) *)
    depth = (if fps.d_gain.(rid) && p' + 1 > parent.depth then p' + 1 else parent.depth);
    fp = (parent.fp * fps.mult.(rid)) + fps.addend.(rid);
  }

(* g(x) of a child is Σ −log₂ h over its open leaves, left to right: the
   applied rule's nonterminals, then the parent's opens after the head.
   Summing the same values in the same order keeps it float-for-float
   [g_cost] on the materialized child. *)
type g_tables = { rule_h : float array array; h_of : (string, float) Hashtbl.t }

let g_tables p =
  let g = Pcfg.cfg p in
  let h_of = Hashtbl.create 16 in
  List.iter (fun nt -> Hashtbl.replace h_of nt (Pcfg.h_cost p nt)) (Cfg.nonterminals g);
  let rule_h =
    Array.map (fun r -> Array.of_list (List.map (Hashtbl.find h_of) (rhs_nts r))) (Cfg.rules g)
  in
  { rule_h; h_of }

let g_rest t (parent : annotated) =
  match parent.opens with
  | [] -> [||]
  | _ :: rest -> Array.of_list (List.map (Hashtbl.find t.h_of) rest)

let g_child t rest rid =
  let hs = t.rule_h.(rid) in
  let acc = ref 0. in
  for i = 0 to Array.length hs - 1 do
    acc := !acc +. hs.(i)
  done;
  for i = 0 to Array.length rest - 1 do
    acc := !acc +. rest.(i)
  done;
  !acc

(* ---- rebuilding the template AST from a complete tree ---- *)

let rec to_expr g (x : t) : Ast.expr option =
  let ( let* ) = Option.bind in
  match x with
  | Leaf (Cfg.Tok_tensor (n, idxs)) -> Some (Ast.Access (n, idxs))
  | Leaf Cfg.Tok_const -> Some (Ast.Access ("Const", []))
  | Leaf _ | Open _ -> None
  | Node (_, ch) -> (
      match ch with
      | [ sub ] -> to_expr g sub
      | [ Leaf Cfg.Tok_neg; sub ] ->
          let* e = to_expr g sub in
          Some (Ast.Neg e)
      | [ Leaf Cfg.Tok_lparen; sub; Leaf Cfg.Tok_rparen ] -> to_expr g sub
      | [ l; mid; r ] -> (
          let* op = op_of g mid in
          let* le = to_expr g l in
          let* re = to_expr g r in
          Some (Ast.Bin (op, le, re)))
      | [ hd; tail ] ->
          (* right-linear chain: TENSOR TAIL *)
          let* hd_e = to_expr g hd in
          fold_tail g hd_e tail
      | _ -> None)

and op_of g (x : t) : Ast.op option =
  match x with
  | Leaf (Cfg.Tok_op op) -> Some op
  | Node (_, [ sub ]) -> op_of g sub
  | _ -> None

and fold_tail g acc (x : t) : Ast.expr option =
  let ( let* ) = Option.bind in
  match x with
  | Node (_, []) -> Some acc (* ε *)
  | Node (_, [ opn; tn ]) ->
      let* op = op_of g opn in
      let* te = to_expr g tn in
      Some (Ast.Bin (op, acc, te))
  | Node (_, [ opn; tn; tail ]) ->
      let* op = op_of g opn in
      let* te = to_expr g tn in
      fold_tail g (Ast.Bin (op, acc, te)) tail
  | _ -> None

let to_program g (x : t) : Ast.program option =
  let ( let* ) = Option.bind in
  match x with
  | Node (_, [ lhs; Leaf Cfg.Tok_assign; rhs ]) ->
      let* lhs_e =
        match lhs with
        | Leaf (Cfg.Tok_tensor (n, idxs)) -> Some (n, idxs)
        | Node (_, [ Leaf (Cfg.Tok_tensor (n, idxs)) ]) -> Some (n, idxs)
        | _ -> None
      in
      let* rhs_e = to_expr g rhs in
      Some { Ast.lhs = lhs_e; rhs = rhs_e }
  | _ -> None

let remove_tail g (x : t) : t option =
  let rec go x =
    match x with
    | Leaf _ -> Some x
    | Open nt ->
        if Cfg.category g nt = Cfg.Cat_tail then
          List.find_map
            (fun (r : Cfg.rule) -> if r.rhs = [] then Some (Node (r.id, [])) else None)
            (Cfg.rules_for g nt)
        else None
    | Node (id, ch) ->
        let rec map_all acc = function
          | [] -> Some (List.rev acc)
          | c :: rest -> (
              match go c with Some c' -> map_all (c' :: acc) rest | None -> None)
        in
        Option.map (fun ch' -> Node (id, ch')) (map_all [] ch)
  in
  if is_complete x then Some x else go x

open Stagg_taco

type criterion = A1 | A2 | A3 | A4 | A5 | B1 | B2

let all_topdown = [ A1; A2; A3; A4; A5 ]
let all_bottomup = [ B1; B2 ]

let criterion_to_string = function
  | A1 -> "a1"
  | A2 -> "a2"
  | A3 -> "a3"
  | A4 -> "a4"
  | A5 -> "a5"
  | B1 -> "b1"
  | B2 -> "b2"

type ctx = {
  dim_list : int list;
  ops_available : Ast.op list;
  grammar_has_const : bool;
  enabled : criterion list;
}

(* a4: some +, − or / applied to two syntactically identical operands. *)
let rec same_operand_addsubdiv (e : Ast.expr) =
  match e with
  | Ast.Access _ | Ast.Const _ -> false
  | Ast.Neg e -> same_operand_addsubdiv e
  | Ast.Bin (op, l, r) ->
      (match op with
      | Ast.Add | Ast.Sub | Ast.Div -> Ast.equal_expr l r
      | Ast.Mul -> false)
      || same_operand_addsubdiv l || same_operand_addsubdiv r

(* [score] runs once per queue push — the searches' innermost loop — so
   the context is compiled once per search into flat fields: criterion
   membership becomes a bool read instead of seven [List.mem]s, and the
   list lengths are taken up front. The per-call arithmetic below is
   kept term for term (order and all) so the total is bit-identical to
   the uncompiled scorer. *)
type compiled = {
  k_len_l : int;
  k_n_ops : int;  (** [List.length ops_available] *)
  k_const : bool;
  k_a1 : bool;
  k_a2 : bool;
  k_a3 : bool;
  k_a4 : bool;
  k_a5 : bool;
  k_b1 : bool;
  k_b2 : bool;
}

let compile ctx =
  let on c = List.mem c ctx.enabled in
  {
    k_len_l = List.length ctx.dim_list;
    k_n_ops = List.length ctx.ops_available;
    k_const = ctx.grammar_has_const;
    k_a1 = on A1;
    k_a2 = on A2;
    k_a3 = on A3;
    k_a4 = on A4;
    k_a5 = on A5;
    k_b1 = on B1;
    k_b2 = on B2;
  }

(* The arithmetic on scalar fields, shared by both entry points below:
   [score_compiled] reads them off a full [Node.metrics], [score_key]
   off the push-side [Node.child_key], which has no AST. [a4_hit] is the
   structural check on the rebuilt AST, already gated on a4 and
   completeness. *)
let score_fields k ~n_tensors ~n_index_i ~has_const_leaf ~n_unique ~sorted_firsts ~n_ops ~complete
    ~a4_hit =
  let too_few = 2 * n_ops < k.k_n_ops in
  let a1 =
    (* grammar includes a constant expression, length exceeds 3, and the
       expression has poor index variety or lacks the constant *)
    if k.k_a1 && k.k_const && n_tensors > 3 && (n_index_i < 2 || not has_const_leaf) then 10.
    else 0.
  in
  let a2 =
    (* the number of unique tensor symbols differs from the dimension-list
       length (a symbol may be used several times: (b-c)*(b-c) has three
       unique symbols). A partial template can still grow, so it is only
       penalized once it is already too long. *)
    if k.k_a2 && ((complete && n_unique <> k.k_len_l) || ((not complete) && n_unique > k.k_len_l))
    then 100.
    else 0.
  in
  (* a3/b1: tensor symbols in alphabetical order by first appearance —
     i.e. the first-appearance sequence is sorted. "Sorted", not
     "consecutive": when a Const occupies a dimension-list slot the
     solution may legally skip that slot's letter (a(i) = Const - c(i));
     Const itself does not participate. The point of the rule is to avoid
     enumerating templates that differ only by symbol permutation (§5.1).
     [Node] maintains the answer in [sorted_firsts], O(1) per leaf. *)
  let a3 = if k.k_a3 && not sorted_firsts then infinity else 0. in
  let a4 = if a4_hit then infinity else 0. in
  let a5 = if k.k_a5 && complete && too_few then infinity else 0. in
  let b1 = if k.k_b1 && not sorted_firsts then 100. else 0. in
  let b2 = if k.k_b2 && n_tensors >= k.k_len_l && too_few then infinity else 0. in
  a1 +. a2 +. a3 +. a4 +. a5 +. b1 +. b2

let score_compiled k (m : Node.metrics) ~program =
  let a4_hit =
    match program with
    | Some p -> k.k_a4 && m.complete && same_operand_addsubdiv p.Ast.rhs
    | None -> false
  in
  score_fields k ~n_tensors:m.n_tensors ~n_index_i:m.n_index_i ~has_const_leaf:m.has_const_leaf
    ~n_unique:m.n_unique ~sorted_firsts:m.sorted_firsts ~n_ops:(List.length m.distinct_ops)
    ~complete:m.complete ~a4_hit

let score_key k (key : Node.child_key) =
  score_fields k ~n_tensors:key.ck_n_tensors ~n_index_i:key.ck_n_index_i
    ~has_const_leaf:key.ck_has_const ~n_unique:key.ck_n_unique ~sorted_firsts:key.ck_sorted_firsts
    ~n_ops:key.ck_n_ops ~complete:key.ck_complete ~a4_hit:false

let score ctx m ~program = score_compiled (compile ctx) m ~program

(* a4 is the only criterion that looks at the rebuilt AST; when it is off
   (every bottom-up method), scoring with [~program:None] is bit-identical
   to scoring with the real program — callers may skip the rebuild. *)
let needs_program k = k.k_a4

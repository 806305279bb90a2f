(* Tests for the static liftability layer and its search integration:
   - QCheck ring/substitution laws for the Affine polynomial domain;
   - Recover regressions on pointer-walking kernels, pinning the exact
     closed-form index polynomials array recovery must produce;
   - Depend unit tests (linear coefficients, GCD/Banerjee independence,
     store classification, stencil detection);
   - Facts: all 77 suite benchmarks stay liftable; each diagnostics
     kernel is rejected with the expected message;
   - Prune: rule-doom tables and the packed arity-clash tracker;
   - pipeline fail-fast end-to-end on the diagnostics kernels;
   - the analysis-on/off differential against committed analysis-off
     counts: solved sets, attempt counts and first solutions must be
     byte-identical, with [expansions_on + suppressed_on = expansions_off]. *)

open Stagg_minic
module Suite = Stagg_benchsuite.Suite
module Bench = Stagg_benchsuite.Bench
module Prune = Stagg_grammar.Prune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let parse = Parser.parse_function_exn

let affine =
  Alcotest.testable (fun fmt p -> Format.pp_print_string fmt (Affine.to_string p)) Affine.equal

(* ---- Affine: ring and substitution laws (QCheck) ---- *)

let pool = [ "i"; "j"; "N"; "M" ]

(* depth-capped: [mul] multiplies monomial counts, so unbounded nesting
   makes term size (and [Affine.mul] cost) explode exponentially *)
let gen_poly ?(vars = pool) () =
  let open QCheck.Gen in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n <= 1 then
           oneof [ map Affine.const (int_range (-9) 9); map Affine.var (oneofl vars) ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 Affine.add sub sub;
               map2 Affine.sub sub sub;
               map2 Affine.mul sub sub;
               map Affine.neg sub;
               map2 Affine.scale (int_range (-4) 4) sub;
             ])

let arb_poly = QCheck.make (gen_poly ()) ~print:Affine.to_string
let arb_pair = QCheck.pair arb_poly arb_poly
let arb_triple = QCheck.triple arb_poly arb_poly arb_poly

let t name arb prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:500 arb prop)
let ( =~ ) = Affine.equal

let ring_tests =
  [
    t "add commutative" arb_pair (fun (p, q) -> Affine.add p q =~ Affine.add q p);
    t "mul commutative" arb_pair (fun (p, q) -> Affine.mul p q =~ Affine.mul q p);
    t "add associative" arb_triple (fun (p, q, r) ->
        Affine.add p (Affine.add q r) =~ Affine.add (Affine.add p q) r);
    t "mul associative" arb_triple (fun (p, q, r) ->
        Affine.mul p (Affine.mul q r) =~ Affine.mul (Affine.mul p q) r);
    t "mul distributes over add" arb_triple (fun (p, q, r) ->
        Affine.mul p (Affine.add q r) =~ Affine.add (Affine.mul p q) (Affine.mul p r));
    t "p - p = 0" arb_poly (fun p -> Affine.sub p p =~ Affine.zero);
    t "sub is add neg" arb_pair (fun (p, q) -> Affine.sub p q =~ Affine.add p (Affine.neg q));
    t "scale is mul by const" (QCheck.pair QCheck.small_signed_int arb_poly) (fun (k, p) ->
        Affine.scale k p =~ Affine.mul (Affine.const k) p);
    t "0 and 1 neutral" arb_poly (fun p ->
        Affine.add p Affine.zero =~ p && Affine.mul (Affine.const 1) p =~ p);
  ]

let subst_tests =
  [
    t "subst v by v is identity" arb_poly (fun p -> Affine.subst p "i" (Affine.var "i") =~ p);
    t "subst eliminates the variable" arb_pair (fun (p, q) ->
        let q = Affine.subst q "i" (Affine.const 1) in
        not (Affine.mentions (Affine.subst p "i" q) "i"));
    t "subst is a ring homomorphism" arb_triple (fun (p, q, r) ->
        Affine.subst (Affine.add p q) "i" r
        =~ Affine.add (Affine.subst p "i" r) (Affine.subst q "i" r)
        && Affine.subst (Affine.mul p q) "i" r
           =~ Affine.mul (Affine.subst p "i" r) (Affine.subst q "i" r));
    (* p[i:=q][j:=r] = p[j:=r][i := q[j:=r]] when i does not occur in r *)
    t "subst composition" arb_triple (fun (p, q, r) ->
        let r = Affine.subst r "i" (Affine.const 2) in
        Affine.subst (Affine.subst p "i" q) "j" r
        =~ Affine.subst (Affine.subst p "j" r) "i" (Affine.subst q "j" r));
    t "vars and mentions agree" arb_poly (fun p ->
        let vs = Affine.vars p in
        List.for_all (fun v -> Affine.mentions p v = List.mem v vs) ("zz" :: pool));
  ]

(* ---- Recover: pointer-walking kernels, exact index polynomials ---- *)

let accesses_of base kind f =
  List.filter (fun (a : Recover.access) -> a.base = base && a.kind = kind) (Recover.analyze f)

let the_index name = function
  | ({ Recover.index = Some p; _ } : Recover.access) -> p
  | _ -> Alcotest.failf "%s: index polynomial lost" name

let test_recover_post_increment () =
  let f =
    parse
      {|void f(int N, int* A, int* R) {
          int i; int* p; p = A;
          for (i = 0; i < N; i++) { R[i] = *p; p++; }
        }|}
  in
  match accesses_of "A" Recover.Load f with
  | [ a ] -> Alcotest.check affine "p++ walks A[i]" (Affine.var "i") (the_index "p++" a)
  | l -> Alcotest.failf "expected 1 load of A, got %d" (List.length l)

let test_recover_strided () =
  let f =
    parse
      {|void f(int N, int* A, int* R) {
          int i; int* p; p = A;
          for (i = 0; i < N; i++) { R[i] = *p; p += 2; }
        }|}
  in
  match accesses_of "A" Recover.Load f with
  | [ a ] ->
      Alcotest.check affine "p += 2 walks A[2i]"
        (Affine.scale 2 (Affine.var "i"))
        (the_index "p += 2" a)
  | l -> Alcotest.failf "expected 1 load of A, got %d" (List.length l)

(* the paper's Fig. 2 kernel: p_m1 walks Mat1 across BOTH loops, so its
   recovered index must be the linearized f*N + i *)
let test_recover_nested_walk () =
  let f =
    parse
      {|void f(int N, int* Mat1, int* Mat2, int* Result) {
          int* p_m1; int* p_m2; int* p_t;
          int i, f;
          p_m1 = Mat1; p_t = Result;
          for (f = 0; f < N; f++) {
            *p_t = 0;
            p_m2 = &Mat2[0];
            for (i = 0; i < N; i++)
              *p_t += *p_m1++ * *p_m2++;
            p_t++;
          }
        }|}
  in
  let nf = Affine.add (Affine.mul (Affine.var "f") (Affine.var "N")) (Affine.var "i") in
  (match accesses_of "Mat1" Recover.Load f with
  | [ a ] -> Alcotest.check affine "Mat1 index f*N + i" nf (the_index "Mat1" a)
  | l -> Alcotest.failf "expected 1 load of Mat1, got %d" (List.length l));
  (match accesses_of "Mat2" Recover.Load f with
  | [ a ] -> Alcotest.check affine "Mat2 index i" (Affine.var "i") (the_index "Mat2" a)
  | l -> Alcotest.failf "expected 1 load of Mat2, got %d" (List.length l));
  List.iter
    (fun (a : Recover.access) ->
      Alcotest.check affine "Result index f" (Affine.var "f") (the_index "Result" a))
    (accesses_of "Result" Recover.Store f)

(* ---- Depend: coefficients, independence tests, classification ---- *)

let test_linear_coeff () =
  let p = Affine.add (Affine.mul (Affine.var "i") (Affine.var "M")) (Affine.var "j") in
  Alcotest.(check (option affine)) "coeff of i is M" (Some (Affine.var "M"))
    (Depend.linear_coeff p "i");
  Alcotest.(check (option affine)) "coeff of j is 1" (Some (Affine.const 1))
    (Depend.linear_coeff p "j");
  Alcotest.(check (option affine)) "absent var has coeff 0" (Some Affine.zero)
    (Depend.linear_coeff p "k");
  let sq = Affine.mul (Affine.var "i") (Affine.var "i") in
  Alcotest.(check (option affine)) "i*i is not linear in i" None (Depend.linear_coeff sq "i")

let test_gcd_independence () =
  let d coeffs k =
    List.fold_left
      (fun acc (c, v) -> Affine.add acc (Affine.scale c (Affine.var v)))
      (Affine.const k) coeffs
  in
  let lv = [ "i"; "j" ] in
  check_bool "2i + 4j + 1 has no root" true
    (Depend.gcd_independent (d [ (2, "i"); (4, "j") ] 1) ~loop_vars:lv);
  check_bool "2i + 4j + 2 may have a root" false
    (Depend.gcd_independent (d [ (2, "i"); (4, "j") ] 2) ~loop_vars:lv);
  check_bool "constant nonzero distance" true
    (Depend.gcd_independent (Affine.const 3) ~loop_vars:lv);
  check_bool "zero distance is a dependence" false
    (Depend.gcd_independent Affine.zero ~loop_vars:lv);
  (* symbolic coefficient: conservative *)
  check_bool "symbolic coeff is conservative" false
    (Depend.gcd_independent
       (Affine.add (Affine.mul (Affine.var "i") (Affine.var "N")) (Affine.const 1))
       ~loop_vars:lv)

let test_banerjee_independence () =
  let lv = [ "i"; "j" ] in
  let p = Affine.add (Affine.add (Affine.var "i") (Affine.var "j")) (Affine.const 1) in
  check_bool "i + j + 1 > 0 on [0,N)" true (Depend.banerjee_independent p ~loop_vars:lv);
  check_bool "-(i + j + 1) < 0 on [0,N)" true
    (Depend.banerjee_independent (Affine.neg p) ~loop_vars:lv);
  check_bool "i - 1 straddles zero" false
    (Depend.banerjee_independent (Affine.sub (Affine.var "i") (Affine.const 1)) ~loop_vars:lv)

let test_classify_gemv () =
  let f =
    parse
      {|void gemv(int N, int M, int* A, int* X, int* R) {
          int i, j;
          for (i = 0; i < N; i++) {
            R[i] = 0;
            for (j = 0; j < M; j++) {
              R[i] += A[i * M + j] * X[j];
            }
          }
        }|}
  in
  match Depend.classify (Recover.analyze f) with
  | [ init; acc ] ->
      check_string "init store is pointwise" "pointwise"
        (Depend.classification_to_string init.st_class);
      check_bool "accumulation reduces over j" true (acc.st_class = Depend.Reduction [ "j" ]);
      check_int "no stencils" 0 (List.length acc.st_stencils);
      check_int "no may-alias" 0 (List.length acc.st_may_alias)
  | l -> Alcotest.failf "expected 2 stores, got %d" (List.length l)

let test_classify_stencil () =
  let f =
    parse
      {|void scan(int N, int* A, int* R) {
          int i;
          for (i = 1; i < N; i++) { R[i] = R[i - 1] + A[i]; }
        }|}
  in
  match Depend.classify (Recover.analyze f) with
  | [ st ] ->
      check_bool "store reads R at distance +1" true (List.mem ("R", 1) st.st_stencils)
  | l -> Alcotest.failf "expected 1 store, got %d" (List.length l)

(* ---- Facts: suite regression and diagnostics rejection ---- *)

let test_all_suite_liftable () =
  List.iter
    (fun (b : Bench.t) ->
      let facts = Facts.analyze (Bench.func b) in
      match facts.ft_verdict with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s became unliftable: %s" b.name d)
    Suite.all

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_diagnostics_rejected () =
  let expect =
    [
      ("diag_mod", "'%'");
      ("diag_relu", "ternary");
      ("diag_prefix_sum", "flow dependence");
      ("diag_no_store", "no store");
    ]
  in
  check_int "diagnostics count" (List.length expect) (List.length Suite.diagnostics);
  List.iter
    (fun (name, needle) ->
      let b = Option.get (Suite.find name) in
      match (Facts.analyze (Bench.func b)).ft_verdict with
      | Ok () -> Alcotest.failf "%s should be rejected" name
      | Error d ->
          check_bool (name ^ " diagnostic mentions " ^ needle) true (contains_sub d needle))
    expect

let test_control_position_not_data () =
  (* loop-header comparisons and subscript arithmetic are control, not
     data: they must not trip the unsupported-construct scan *)
  let f =
    parse
      {|void f(int N, int* A, int* R) {
          int i;
          for (i = 0; i < N; i++) { R[i] = A[i % N + 0]; }
        }|}
  in
  check_int "subscripts and loop headers are control" 0
    (List.length (Facts.unsupported_data_constructs f))

(* ---- Prune: rule dooming and the arity-clash tracker ---- *)

let full_grammar = lazy (Stagg_grammar.Taco_grammar.generate ~n_rhs_tensors:3 ~max_rank:2 ~n_indices:3 ())

let restrict ctx = Prune.restrict (Lazy.force full_grammar) ctx

let test_prune_dooms_rules () =
  let pr =
    restrict
      { Prune.out_rank = Some 1; arg_ranks = Some [ 0; 2; 1 ]; no_consts = true; lhs_name = "a" }
  in
  check_bool "some rules doomed" true (Prune.n_doomed pr > 0);
  check_bool "tracker active" true (Prune.tracks_arity pr);
  let count r = Option.value ~default:0 (List.assoc_opt r (Prune.doomed_counts pr)) in
  check_bool "LHS rank mismatches doomed" true (count (Prune.reason_to_string Prune.Lhs_rank) > 0);
  check_bool "const rules doomed on empty pool" true
    (count (Prune.reason_to_string Prune.Const_pool) > 0)

let test_prune_no_facts_no_dooming () =
  let pr =
    restrict { Prune.out_rank = None; arg_ranks = None; no_consts = false; lhs_name = "a" } in
  check_int "nothing doomed without facts" 0 (Prune.n_doomed pr)

let test_prune_arity_clash () =
  let g = Lazy.force full_grammar in
  let pr =
    restrict
      { Prune.out_rank = Some 2; arg_ranks = Some [ 0; 1; 2 ]; no_consts = false; lhs_name = "a" }
  in
  (* find the rules deriving tensor b at ranks 1 and 2 *)
  let rule_for name arity =
    let matches (r : Stagg_grammar.Cfg.rule) =
      List.exists
        (function
          | Stagg_grammar.Cfg.T (Stagg_grammar.Cfg.Tok_tensor (n, idx)) ->
              n = name && List.length idx = arity
          | _ -> false)
        r.rhs
    in
    match List.find_opt matches (Array.to_list (Stagg_grammar.Cfg.rules g)) with
    | Some r -> r.id
    | None -> Alcotest.failf "no rule for %s at arity %d" name arity
  in
  let b1 = rule_for "b" 1 and b2 = rule_for "b" 2 in
  let st = Prune.step pr Prune.root b1 in
  check_bool "b/1 alone is fine" false (Prune.is_doomed st);
  check_bool "b/1 twice is fine" false (Prune.is_doomed (Prune.step pr st b1));
  check_bool "b/1 then b/2 clashes" true (Prune.is_doomed (Prune.step pr st b2));
  check_bool "doomed is a sink" true (Prune.is_doomed (Prune.step pr (Prune.step pr st b2) b1));
  (* order-insensitive *)
  check_bool "b/2 then b/1 clashes" true
    (Prune.is_doomed (Prune.step pr (Prune.step pr Prune.root b2) b1))

(* ---- pipeline: fail-fast end-to-end ---- *)

let test_fail_fast () =
  List.iter
    (fun (b : Bench.t) ->
      let r = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      check_bool (b.name ^ " unsolved") false r.Stagg.Result_.solved;
      check_int (b.name ^ " zero attempts") 0 r.attempts;
      check_int (b.name ^ " zero expansions") 0 r.expansions;
      match r.failure with
      | Some msg -> check_bool (b.name ^ " diagnostic") true (contains_sub msg "not liftable: ")
      | None -> Alcotest.failf "%s has no failure message" b.name)
    Suite.diagnostics

(* ---- the analysis-on/off differential ---- *)

let first_solution (r : Stagg.Result_.t) =
  match r.solution with
  | Some sol -> Stagg_taco.Pretty.program_to_string sol.concrete
  | None -> "<none>"

(* Analysis off vs on (admission-suppressed pruning) must be OBSERVABLY
   the same search: identical solved sets, attempt counts and first
   solutions. The accounting identity pins down how the prune partitions
   the same baseline pop sequence:
     off.expansions = admission.expansions + admission.suppressed.

   The off side is a committed table: one row per (method, bench) of
   Suite.artificial, recorded with the analysis switched off before that
   switch was removed — (label, bench, solved, attempts, first solution,
   off expansions).

   The identity only holds when every stop is deterministic (attempt /
   expansion / frontier caps). The wall-clock backstop would cut a run
   at whatever pop the 64-pop poll lands on, which depends on machine
   load — the heaviest artificial searches sit near the 10 s default
   under a loaded domain pool — so the differential runs with the
   timeout disabled. *)
let analysis_off_rows =
  [
    ("STAGG^TD", "art_copy", true, 1, "R(i) = A(i)", 4);
    ("STAGG^TD", "art_scal_const", true, 1, "R(i) = A(i) * 5", 12);
    ("STAGG^TD", "art_vec_add", true, 1, "R(i) = A(i) + B(i)", 10);
    ("STAGG^TD", "art_dot", true, 1, "R = A(i) * B(i)", 11);
    ("STAGG^TD", "art_outer", true, 3, "R(i, j) = A(i) * B(j)", 21);
    ("STAGG^TD", "art_gemv", true, 1, "R(i) = A(i, j) * X(j)", 10);
    ("STAGG^TD", "art_gemm", true, 11, "R(i, j) = A(i, k) * B(k, j)", 34);
    ("STAGG^TD", "art_ttv", true, 23, "R(i, j) = A(i, j, k) * X(k)", 120);
    ("STAGG^TD", "art_ttm", true, 2, "R(i, j, k) = A(i, j, l) * B(k, l)", 13);
    ("STAGG^TD", "art_mttkrp", true, 1, "R(i, j) = A(i, k, l) * (B(k, j) * C(l, j))", 287);
    ("STAGG^BU", "art_copy", true, 1, "R(i) = A(i)", 4);
    ("STAGG^BU", "art_scal_const", true, 1, "R(i) = A(i) * 5", 7);
    ("STAGG^BU", "art_vec_add", true, 1, "R(i) = A(i) + B(i)", 7);
    ("STAGG^BU", "art_dot", true, 1, "R = A(i) * B(i)", 7);
    ("STAGG^BU", "art_outer", true, 5, "R(i, j) = A(i) * B(j)", 19);
    ("STAGG^BU", "art_gemv", true, 1, "R(i) = A(i, j) * X(j)", 7);
    ("STAGG^BU", "art_gemm", true, 4, "R(i, j) = A(i, k) * B(k, j)", 15);
    ("STAGG^BU", "art_ttv", true, 23, "R(i, j) = A(i, j, k) * X(k)", 109);
    ("STAGG^BU", "art_ttm", true, 2, "R(i, j, k) = A(i, j, l) * B(k, l)", 8);
    ("STAGG^BU", "art_mttkrp", true, 1, "R(i, j) = A(i, k, l) * B(k, j) * C(l, j)", 10);
    ("STAGG^TD.FullGrammar", "art_copy", true, 6, "R(i) = A(i)", 12);
    ("STAGG^TD.FullGrammar", "art_scal_const", true, 14, "R(i) = 5 * A(i)", 92);
    ("STAGG^TD.FullGrammar", "art_vec_add", true, 137, "R(i) = A(i) + B(i)", 391);
    ("STAGG^TD.FullGrammar", "art_dot", true, 76, "R = A(i) * B(i)", 298);
    ("STAGG^TD.FullGrammar", "art_outer", true, 7968, "R(j, i) = B(i) * A(j)", 23960);
    ("STAGG^TD.FullGrammar", "art_gemv", true, 2554, "R(i) = X(j) * A(i, j)", 8306);
    ("STAGG^TD.FullGrammar", "art_gemm", true, 11452, "R(j, i) = B(k, i) * A(j, k)", 41194);
    ("STAGG^TD.FullGrammar", "art_ttv", false, 40960, "<none>", 253038);
    ("STAGG^TD.FullGrammar", "art_ttm", false, 0, "<none>", 142825);
    ("STAGG^TD.FullGrammar", "art_mttkrp", false, 0, "<none>", 197565);
    ("STAGG^BU.FullGrammar", "art_copy", true, 5, "R(i) = A(i)", 11);
    ("STAGG^BU.FullGrammar", "art_scal_const", true, 57, "R(i) = A(i) * 5", 105);
    ("STAGG^BU.FullGrammar", "art_vec_add", true, 193, "R(i) = A(i) + B(i)", 297);
    ("STAGG^BU.FullGrammar", "art_dot", true, 34, "R = A(i) * B(i)", 110);
    ("STAGG^BU.FullGrammar", "art_outer", true, 9036, "R(j, i) = B(i) * A(j)", 10133);
    ("STAGG^BU.FullGrammar", "art_gemv", true, 867, "R(i) = X(j) * A(i, j)", 1404);
    ("STAGG^BU.FullGrammar", "art_gemm", true, 9687, "R(j, i) = B(k, i) * A(j, k)", 11599);
    ("STAGG^BU.FullGrammar", "art_ttv", false, 60000, "<none>", 69106);
    ("STAGG^BU.FullGrammar", "art_ttm", false, 0, "<none>", 135257);
    ("STAGG^BU.FullGrammar", "art_mttkrp", false, 0, "<none>", 37290);
  ]

let test_differential () =
  let adm =
    List.concat_map
      (fun (m : Stagg.Method_.t) ->
        let m =
          { m with budget = { m.budget with Stagg_search.Astar.timeout_s = Float.infinity } }
        in
        Stagg.Pipeline.run_suite m Suite.artificial)
      [
        Stagg.Method_.stagg_td;
        Stagg.Method_.stagg_bu;
        Stagg.Method_.td_full_grammar;
        Stagg.Method_.bu_full_grammar;
      ]
  in
  check_int "one analysis-off row per run" (List.length analysis_off_rows) (List.length adm);
  List.iter2
    (fun (label, bench, solved, attempts, first, expansions) (a : Stagg.Result_.t) ->
      let lbl = a.method_label ^ "/" ^ a.bench in
      check_string (lbl ^ " row") (label ^ "/" ^ bench) lbl;
      check_bool (lbl ^ " admission solved") solved a.solved;
      check_int (lbl ^ " admission attempts") attempts a.attempts;
      check_string (lbl ^ " admission first solution") first (first_solution a);
      check_int (lbl ^ " admission pops partitioned") expansions (a.expansions + a.suppressed))
    analysis_off_rows adm;
  let suppressed = List.fold_left (fun n (a : Stagg.Result_.t) -> n + a.suppressed) 0 adm in
  check_bool "admission suppressed something" true (suppressed > 0)

(* The diagnostics kernels exercise the fail-fast path: with the analysis
   on, both searches must reject before any search. *)
let test_fail_fast_both_searches () =
  List.iter
    (fun (m : Stagg.Method_.t) ->
      List.iter
        (fun (a : Stagg.Result_.t) ->
          let lbl = m.label ^ "/" ^ a.bench in
          check_bool (lbl ^ " unsolved") false a.solved;
          check_int (lbl ^ " zero attempts") 0 a.attempts;
          check_bool (lbl ^ " analyzer's diagnostic") true
            (contains_sub (Option.value a.failure ~default:"") "not liftable: ");
          check_int (lbl ^ " does no search") 0 (a.expansions + a.suppressed))
        (Stagg.Pipeline.run_suite m Suite.diagnostics))
    [ Stagg.Method_.stagg_td; Stagg.Method_.stagg_bu ]

let () =
  Alcotest.run "stagg_analysis"
    [
      ("affine ring laws", ring_tests);
      ("affine substitution", subst_tests);
      ( "recover pointer walks",
        [
          Alcotest.test_case "p++" `Quick test_recover_post_increment;
          Alcotest.test_case "p += 2" `Quick test_recover_strided;
          Alcotest.test_case "nested walk (Fig. 2)" `Quick test_recover_nested_walk;
        ] );
      ( "dependence",
        [
          Alcotest.test_case "linear coefficients" `Quick test_linear_coeff;
          Alcotest.test_case "GCD independence" `Quick test_gcd_independence;
          Alcotest.test_case "Banerjee independence" `Quick test_banerjee_independence;
          Alcotest.test_case "gemv classification" `Quick test_classify_gemv;
          Alcotest.test_case "scan stencil" `Quick test_classify_stencil;
        ] );
      ( "facts",
        [
          Alcotest.test_case "all 77 stay liftable" `Quick test_all_suite_liftable;
          Alcotest.test_case "diagnostics rejected" `Quick test_diagnostics_rejected;
          Alcotest.test_case "control position is not data" `Quick test_control_position_not_data;
        ] );
      ( "prune",
        [
          Alcotest.test_case "rules doomed" `Quick test_prune_dooms_rules;
          Alcotest.test_case "no facts, no dooming" `Quick test_prune_no_facts_no_dooming;
          Alcotest.test_case "arity clash tracking" `Quick test_prune_arity_clash;
        ] );
      ( "fail fast",
        [
          Alcotest.test_case "diagnostics rejected before search" `Quick test_fail_fast;
        ] );
      ( "differential",
        [
          Alcotest.test_case "off/admission are byte-identical" `Slow test_differential;
          Alcotest.test_case "fail-fast holds for both searches" `Quick
            test_fail_fast_both_searches;
        ] );
    ]

(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§8) and runs Bechamel micro-benchmarks — one
    [Test.make] per experiment — timing a representative query for each.

    Run with: [dune exec bench/main.exe]
    Pass [--skip-ablations] to produce only Table 1 and Figures 9–10;
    pass [--skip-bechamel] to skip the micro-benchmark pass;
    pass [--jobs N] (or [-j N]) to run the experiment sweeps on a pool
    of N domains (default: [Domain.recommended_domain_count () - 1];
    [--jobs 1] reproduces the sequential harness exactly, modulo
    timing); pass [--json FILE] to also write the machine-readable
    summary as JSON for perf-trajectory tracking; pass [--smoke] for
    the <60s artificial-suite CI sweep ([dune build @smoke] runs it and
    diffs the JSON against the committed expectations). [--help] lists
    every flag. *)

module Experiments = Stagg_report.Experiments
module Method_flags = Stagg_cmdline.Method_flags

let representative name =
  match Stagg_benchsuite.Suite.find name with
  | Some b -> b
  | None -> failwith ("missing benchmark " ^ name)

(* ---- Bechamel micro-benchmarks: one per table/figure ---- *)

(* The staged evaluator vs the reference interpreter on the validation
   hot path: gemv at the validator's own example sizes (N=3, M=4). The
   compiled program is built once outside the timed closure, as the
   validator compiles once per instantiation and evaluates per example. *)
let evaluator_tests () =
  let open Bechamel in
  let module T = Stagg_taco.Tensor in
  let module I = Stagg_taco.Interp.Make (Stagg_util.Value.Rat_value) in
  let module C = Stagg_taco.Compile.Make (Stagg_util.Value.Rat_value) in
  let p = Stagg_taco.Parser.parse_program_exn "R(i) = A(i, j) * X(j)" in
  let r = Stagg_util.Rat.of_int in
  let env =
    [
      ("A", T.of_flat_array [| 3; 4 |] (Array.init 12 (fun k -> r (k + 1))));
      ("X", T.of_flat_array [| 4 |] (Array.init 4 (fun k -> r (k + 2))));
    ]
  in
  let lhs_shape = [| 3 |] in
  let expected =
    match I.run ~env ~lhs_shape p with
    | Ok t -> T.to_flat_array t
    | Error e -> failwith e
  in
  let compiled = C.compile p in
  (* the same kernel as the validator sees it: a template whose symbols
     are substituted per candidate — once by instantiate+compile (the
     per-candidate path), once by rebind over the shared template
     compilation (the batched path) *)
  let template = Stagg_taco.Parser.parse_program_exn "a(i) = b(i, j) * c(j)" in
  let mapping = [ ("a", "R"); ("b", "A"); ("c", "X") ] in
  let template_compiled = C.compile_template template in
  [
    Test.make ~name:"validator kernel: gemv Interp.run"
      (Staged.stage (fun () -> ignore (I.run ~env ~lhs_shape p)));
    Test.make ~name:"validator kernel: gemv Compile.run_equal"
      (Staged.stage (fun () -> ignore (C.run_equal compiled ~env ~lhs_shape ~expected)));
    Test.make ~name:"validator kernel: gemv instantiate+compile+run_equal"
      (Staged.stage (fun () ->
           let concrete = Stagg_template.Templatize.rename template ~mapping ~const:None in
           let c = C.compile concrete in
           ignore (C.run_equal c ~env ~lhs_shape ~expected)));
    Test.make ~name:"validator kernel: gemv rebind+run_equal (batched)"
      (Staged.stage (fun () ->
           C.rebind template_compiled ~mapping ~const:None;
           ignore (C.run_equal template_compiled ~env ~lhs_shape ~expected)));
  ]

let bechamel_tests () =
  let open Bechamel in
  let gemv = representative "art_gemv" in
  let run_method m () = ignore (Stagg.Pipeline.run m gemv) in
  let staged f = Staged.stage f in
  evaluator_tests ()
  @ [
    (* Table 1 / Fig 9 / Fig 10: the head-to-head methods *)
    Test.make ~name:"table1/fig9/fig10 STAGG_TD" (staged (run_method Stagg.Method_.stagg_td));
    Test.make ~name:"table1/fig9/fig10 STAGG_BU" (staged (run_method Stagg.Method_.stagg_bu));
    Test.make ~name:"table1 LLM-only"
      (staged (fun () -> ignore (Stagg_baselines.Llm_only.run ~seed:1 gemv)));
    Test.make ~name:"table1 C2TACO"
      (staged (fun () -> ignore (Stagg_baselines.C2taco.run ~seed:1 ~heuristics:true gemv)));
    Test.make ~name:"table1 Tenspiler"
      (staged (fun () -> ignore (Stagg_baselines.Tenspiler.run ~seed:1 gemv)));
    (* Table 2: the penalty machinery *)
    Test.make ~name:"table2 STAGG_TD.Drop(A)"
      (staged (run_method (Stagg.Method_.drop_all_penalties Stagg.Method_.stagg_td "A")));
    (* Table 3 / Figs 11-12: grammar configurations *)
    Test.make ~name:"table3/fig11 TD.EqualProbability"
      (staged (run_method Stagg.Method_.td_equal_probability));
    Test.make ~name:"table3/fig11 TD.LLMGrammar" (staged (run_method Stagg.Method_.td_llm_grammar));
    Test.make ~name:"table3/fig12 TD.FullGrammar"
      (staged (run_method Stagg.Method_.td_full_grammar));
    ]

(* Each Bechamel test is self-contained, so the micro-benchmark pass runs
   on the same domain pool as the experiment sweeps; workers return their
   report lines and the caller prints them in test order. Expect a little
   more measurement noise at [jobs > 1] — worker domains share the
   machine while measuring. *)
let run_bechamel ~jobs () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Bechamel micro-benchmarks (one per experiment; gemv query) ==";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
  let measure test =
    let buf = Buffer.create 128 in
    let results = Benchmark.all cfg instances test in
    Hashtbl.iter
      (fun name raw ->
        match
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            Instance.monotonic_clock raw
        with
        | ols -> (
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.bprintf buf "  %-44s %14.0f ns/run\n" name est
            | _ -> Printf.bprintf buf "  %-44s (no estimate)\n" name)
        | exception _ -> Printf.bprintf buf "  %-44s (analysis failed)\n" name)
      results;
    Buffer.contents buf
  in
  List.iter print_string (Stagg_util.Pool.map ~jobs measure (bechamel_tests ()))

(* ---- smoke mode: a <60s CI sweep over the artificial suite ----

   Runs the two head-to-head methods plus the (slowest) FullGrammar
   configurations over the 10 artificial queries only. Everything
   emitted — solved counts, attempt totals — is deterministic, so the
   [--json] output can be diffed byte-for-byte against the committed
   [bench/smoke_expected.json] (the [@smoke] dune alias does exactly
   that); a drift means a search-behavior change, not noise. *)

let smoke_methods =
  [
    Stagg.Method_.stagg_td;
    Stagg.Method_.stagg_bu;
    Stagg.Method_.td_full_grammar;
    Stagg.Method_.bu_full_grammar;
  ]

let smoke_json rows =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n  \"schema_version\": %d,\n  \"suite\": \"artificial\",\n  \"methods\": [\n"
    Stagg_report.Experiments.schema_version;
  let n = List.length rows in
  List.iteri
    (fun i (label, rs) ->
      let solved = List.length (List.filter (fun (r : Stagg.Result_.t) -> r.solved) rs) in
      let attempts = List.fold_left (fun a (r : Stagg.Result_.t) -> a + r.attempts) 0 rs in
      let instantiations =
        List.fold_left (fun a (r : Stagg.Result_.t) -> a + r.instantiations) 0 rs
      in
      Printf.bprintf buf
        "    { \"method\": %S, \"solved\": %d, \"total\": %d, \"total_attempts\": %d, \
         \"total_instantiations\": %d }%s\n"
        label solved (List.length rs) attempts instantiations
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* [--strip-schema-version SRC DST]: copy SRC to DST minus the
   "schema_version" line. The @smoke alias diffs generated summaries
   against expectations committed before the field existed; stripping on
   the generated side keeps that comparison byte-for-byte while the
   emitted files stay versioned for downstream consumers. *)
let strip_schema_version src dst =
  let ic = open_in src in
  let oc = open_out dst in
  (try
     while true do
       let line = input_line ic in
       if not (String.starts_with ~prefix:"\"schema_version\"" (String.trim line)) then begin
         output_string oc line;
         output_char oc '\n'
       end
     done
   with End_of_file -> ());
  close_in ic;
  close_out oc

let run_smoke ~jobs ~json_file ~frontier_ceiling ~tune () =
  let benches = Stagg_benchsuite.Suite.artificial in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun (m : Stagg.Method_.t) -> (m.label, Stagg.Pipeline.run_suite ~jobs (tune m) benches))
      smoke_methods
  in
  Printf.printf "== smoke sweep (artificial suite, %d queries) ==\n" (List.length benches);
  List.iter
    (fun (label, rs) ->
      let solved = List.length (List.filter (fun (r : Stagg.Result_.t) -> r.solved) rs) in
      Printf.printf "  %-24s solved %2d/%d\n" label solved (List.length rs))
    rows;
  Printf.printf "smoke wall: %.1fs\n" (Unix.gettimeofday () -. t0);
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (smoke_json rows);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file);
  (* memory regression gate: the frontier high-water marks of the
     sweep's searches, summed, must stay under the recorded ceiling. The
     frontier is what a search retains, and each high-water mark is a
     function of the pop sequence alone, so the gate reads the same
     value on every run and runtime. (The single largest mark cannot
     serve: the heaviest searches stop at the frontier cap whether or
     not pruning is on.) Reported on stderr (and asserted), never in the
     byte-diffed JSON. *)
  match frontier_ceiling with
  | None -> ()
  | Some ceiling ->
      let total =
        List.fold_left
          (fun acc (_, rs) ->
            List.fold_left (fun a (r : Stagg.Result_.t) -> a + r.frontier_peak) acc rs)
          0 rows
      in
      Printf.eprintf "[bench] frontier peaks: %d entries (ceiling %d)\n%!" total ceiling;
      if total > ceiling then begin
        Printf.eprintf "[bench] FAIL: smoke frontier peaks %d entries exceed ceiling %d\n%!"
          total ceiling;
        exit 1
      end

(* ---- liftability diagnostics: the analyzer's fail-fast path ----

   Runs STAGG^TD over the deliberately-unliftable demo kernels
   ([Suite.diagnostics], not part of the 77): each is rejected by the
   static analysis before any search, with a diagnostic naming the
   offending construct. Kept out of the smoke sweep (and of every
   table) — this is a demonstration, not a measurement. *)
let run_diagnostics () =
  print_endline "== liftability diagnostics (unliftable demo kernels, rejected before search) ==";
  List.iter
    (fun b ->
      let r = Stagg.Pipeline.run Stagg.Method_.stagg_td b in
      Format.printf "%a@." Stagg.Result_.pp r)
    Stagg_benchsuite.Suite.diagnostics;
  print_newline ()

(* ---- serve modes: the lift-as-a-service bench legs ----

   [--serve-smoke] replays a small deterministic request mix — distinct
   kernels, an exact repeat, an alpha-renamed variant, a
   constant-renamed variant, an unliftable kernel, two malformed
   requests and a stats probe — through one in-process server, cold
   then warm, at jobs = 1. Every response field except per-request wall
   time is deterministic, so the normalized output is byte-diffed
   against committed expectations by the fifth @smoke leg: a drift
   means the cache/single-flight/remap behavior changed, not noise.

   [--serve-load] replays the full 77-benchmark suite twice through a
   server at configurable concurrency, asserts every answer is
   byte-identical to the direct (serverless) pipeline, that the warm
   pass never searches, and that the cache hit rate clears 50%; it
   records p50/p95/p99 latency and cache counters into a BENCH-style
   JSON snapshot. *)

module J = Stagg_serve.Json

(* Per-request wall time is the only nondeterministic response field;
   drop it, keep everything else byte-exact. *)
let normalize_response line =
  match J.of_string line with
  | Ok (J.Obj fields) ->
      J.to_string (J.Obj (List.filter (fun (k, _) -> not (String.equal k "time_s")) fields))
  | Ok j -> J.to_string j
  | Error _ -> line

let serve_smoke_requests () =
  let req fields = J.to_string (J.Obj fields) in
  let lift id c sg = req [ ("id", J.String id); ("c", J.String c); ("sig", J.String sg) ] in
  let mul3 = "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * 3; }" in
  let mul3_alpha =
    "void g(int m, int *x, int *y) { int j; for (j = 0; j < m; j++) y[j] = x[j] * 3; }"
  in
  let mul9 = "void f(int n, int *a, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] * 9; }" in
  let add2 =
    "void h(int n, int *a, int *b, int *r) { int i; for (i = 0; i < n; i++) r[i] = a[i] + b[i]; }"
  in
  let diag = List.hd Stagg_benchsuite.Suite.diagnostics in
  [
    lift "mul3" mul3 "n:size,a:arr[n],r:out[n]" (* miss: searched *);
    lift "mul3" mul3 "n:size,a:arr[n],r:out[n]" (* identical repeat: exact-key hit *);
    lift "mul3-alpha" mul3_alpha "m:size,x:arr[m],y:out[m]" (* alpha variant: remap *);
    lift "mul9" mul9 "n:size,a:arr[n],r:out[n]" (* constant variant: remap *);
    lift "add2" add2 "n:size,a:arr[n],b:arr[n],r:out[n]" (* distinct kernel: miss *);
    lift diag.Stagg_benchsuite.Bench.name diag.c_source
      (Stagg_minic.Sigspec.to_string diag.signature) (* unliftable: unsolved *);
    req [ ("id", J.String "bad-c"); ("c", J.String "void f(int n { }"); ("sig", J.String "n:size") ];
    req [ ("id", J.String "no-sig"); ("c", J.String mul3) ];
    req [ ("op", J.String "stats") ];
  ]

let run_serve_smoke ~jobs ~json_file () =
  (* jobs > 1 (the TSan CI leg) races the mix through the single-flight
     cache — useful under the race detector, but which request becomes
     owner is then scheduling-dependent, so only the jobs = 1 output is
     byte-diffable *)
  let server =
    Stagg_serve.Server.create ~config:{ Stagg_serve.Server.jobs; cache_max = 64; verify = true } ()
  in
  let lines = serve_smoke_requests () in
  let buf = Buffer.create 4096 in
  let replay label =
    Printf.bprintf buf "== %s ==\n" label;
    List.iter
      (fun resp ->
        Buffer.add_string buf (normalize_response resp);
        Buffer.add_char buf '\n')
      (Stagg_serve.Server.run_lines server lines)
  in
  let t0 = Unix.gettimeofday () in
  replay "cold";
  replay "warm";
  Printf.printf "== serve smoke (%d requests, cold + warm replay) ==\n" (List.length lines);
  Printf.printf "serve smoke wall: %.1fs\n" (Unix.gettimeofday () -. t0);
  match json_file with
  | None -> print_string (Buffer.contents buf)
  | Some file ->
      let oc = open_out file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file

(* Nearest-rank percentile over an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let run_serve_load ~jobs ~json_file () =
  let benches = Stagg_benchsuite.Suite.all in
  Printf.printf "== serve load (%d benchmarks x 2 passes, %d jobs) ==\n%!" (List.length benches)
    jobs;
  (* Ground truth first: the direct, serverless pipeline. The serve
     answers must match it byte for byte — the cache and the remap path
     are allowed to save work, never to change a result. *)
  let direct =
    List.map
      (fun (b : Stagg_benchsuite.Bench.t) ->
        let r = Stagg.Pipeline.run Stagg.Method_.td_trace b in
        let taco =
          Option.map
            (fun (s : Stagg_validate.Validator.solution) ->
              Stagg_taco.Pretty.program_to_string s.concrete)
            r.Stagg.Result_.solution
        in
        (b.name, r.Stagg.Result_.solved, taco))
      benches
  in
  let requests =
    List.map
      (fun (b : Stagg_benchsuite.Bench.t) ->
        J.to_string
          (J.Obj
             [
               ("id", J.String b.name);
               ("c", J.String b.c_source);
               ("sig", J.String (Stagg_minic.Sigspec.to_string b.signature));
             ]))
      benches
  in
  let server =
    Stagg_serve.Server.create ~config:{ Stagg_serve.Server.jobs; cache_max = 256; verify = true } ()
  in
  let t0 = Unix.gettimeofday () in
  let pass1 = Stagg_serve.Server.run_lines server requests in
  let s1 = Stagg_serve.Server.cache_stats server in
  let pass2 = Stagg_serve.Server.run_lines server requests in
  let wall_s = Unix.gettimeofday () -. t0 in
  let s2 = Stagg_serve.Server.cache_stats server in
  let failures = ref 0 in
  let check pass responses =
    List.iter2
      (fun (name, d_solved, d_taco) resp ->
        match J.of_string resp with
        | Error e ->
            incr failures;
            Printf.eprintf "[bench] FAIL %s/%s: unparseable response (%s)\n%!" pass name e
        | Ok j ->
            let status = Option.bind (J.member "status" j) J.to_str in
            let taco = Option.bind (J.member "taco" j) J.to_str in
            let s_solved = status = Some "ok" in
            if s_solved <> d_solved || (d_solved && taco <> d_taco) then begin
              incr failures;
              Printf.eprintf "[bench] FAIL %s/%s: serve %s %S, direct %b %S\n%!" pass name
                (Option.value status ~default:"?")
                (Option.value taco ~default:"")
                d_solved
                (Option.value d_taco ~default:"")
            end)
      direct responses
  in
  check "cold" pass1;
  check "warm" pass2;
  (* warm-cache replay must be O(1): every repeat answered from cache,
     zero new searches admitted *)
  if s2.Stagg_serve.Cache.misses <> s1.Stagg_serve.Cache.misses then begin
    incr failures;
    Printf.eprintf "[bench] FAIL: warm pass ran %d fresh searches (expected 0)\n%!"
      (s2.Stagg_serve.Cache.misses - s1.Stagg_serve.Cache.misses)
  end;
  let lift_total = s2.Stagg_serve.Cache.hits + s2.Stagg_serve.Cache.misses + s2.Stagg_serve.Cache.joins in
  let hit_rate =
    float_of_int (s2.Stagg_serve.Cache.hits + s2.Stagg_serve.Cache.joins)
    /. float_of_int (max 1 lift_total)
  in
  if hit_rate < 0.5 then begin
    incr failures;
    Printf.eprintf "[bench] FAIL: cache hit rate %.3f below 0.5 on a 2x replay\n%!" hit_rate
  end;
  let lat =
    List.filter_map
      (fun resp ->
        match J.of_string resp with
        | Ok j -> Option.map (fun s -> s *. 1000.) (Option.bind (J.member "time_s" j) J.to_float)
        | Error _ -> None)
      (pass1 @ pass2)
    |> Array.of_list
  in
  Array.sort compare lat;
  let p50 = percentile lat 50. and p95 = percentile lat 95. and p99 = percentile lat 99. in
  let solved = List.length (List.filter (fun (_, s, _) -> s) direct) in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf
    "  requests %d  solved %d/%d  hit rate %.3f\n\
    \  latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n\
    \  cache: hits %d  misses %d  joins %d  remaps %d  evictions %d  entries %d\n\
     serve load wall: %.1fs\n"
    (2 * List.length benches)
    solved (List.length benches) hit_rate p50 p95 p99 s2.Stagg_serve.Cache.hits
    s2.Stagg_serve.Cache.misses s2.Stagg_serve.Cache.joins s2.Stagg_serve.Cache.remaps
    s2.Stagg_serve.Cache.evictions s2.Stagg_serve.Cache.entries wall_s;
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": %d,\n\
        \  \"suite\": \"serve-load\",\n\
        \  \"jobs\": %d,\n\
        \  \"requests\": %d,\n\
        \  \"solved\": %d,\n\
        \  \"total\": %d,\n\
        \  \"hit_rate\": %.4f,\n\
        \  \"p50_ms\": %.4f,\n\
        \  \"p95_ms\": %.4f,\n\
        \  \"p99_ms\": %.4f,\n\
        \  \"wall_s\": %.3f,\n\
        \  \"heap_words\": %d,\n\
        \  \"cache\": { \"hits\": %d, \"misses\": %d, \"joins\": %d, \"remaps\": %d, \
         \"evictions\": %d, \"entries\": %d }\n\
         }\n"
        Stagg_report.Experiments.schema_version jobs
        (2 * List.length benches)
        solved (List.length benches) hit_rate p50 p95 p99 wall_s heap_words
        s2.Stagg_serve.Cache.hits s2.Stagg_serve.Cache.misses s2.Stagg_serve.Cache.joins
        s2.Stagg_serve.Cache.remaps s2.Stagg_serve.Cache.evictions s2.Stagg_serve.Cache.entries;
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file);
  if !failures > 0 then begin
    Printf.eprintf "[bench] FAIL: %d serve-load check(s) failed\n%!" !failures;
    exit 1
  end

(* [--oracle] steers only --smoke: the campaign carries its own Trace and
   Trace+LLM rows. *)
let run_campaign ~skip_ablations ~skip_bechamel ~jobs ~json_file =
  let progress msg = Printf.eprintf "[bench] %s\n%!" msg in
  let t0 = Unix.gettimeofday () in
  let runs =
    if skip_ablations then Experiments.run_core ~progress ~jobs ()
    else Experiments.run_all ~progress ~jobs ()
  in
  Printf.printf "Guided Tensor Lifting — experiment harness (suite of %d queries, seed %d)\n\n"
    (List.length Stagg_benchsuite.Suite.all)
    runs.seed;
  run_diagnostics ();
  print_string (Experiments.table1 runs);
  print_newline ();
  print_string (Experiments.fig9 runs);
  print_newline ();
  print_string (Experiments.fig10 runs);
  print_newline ();
  if not skip_ablations then begin
    print_string (Experiments.table2 runs);
    print_newline ();
    print_string (Experiments.table3 runs);
    print_newline ();
    print_string (Experiments.fig11 runs);
    print_newline ();
    print_string (Experiments.fig12 runs);
    print_newline ()
  end;
  Printf.printf "== machine-readable summary (method, solved, avg time over solved, avg attempts) ==\n";
  print_string (Experiments.summary runs);
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal harness time: %.1fs\n" wall_s;
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Experiments.json_summary ~jobs ~wall_s runs);
      close_out oc;
      Printf.eprintf "[bench] wrote %s\n%!" file);
  if not skip_bechamel then run_bechamel ~jobs ()

let main smoke serve_smoke serve_load skip_ablations skip_bechamel flags frontier_ceiling jobs
    json_file =
  if serve_smoke then run_serve_smoke ~jobs ~json_file ()
  else if serve_load then run_serve_load ~jobs ~json_file ()
  else if smoke then run_smoke ~jobs ~json_file ~frontier_ceiling ~tune:(Method_flags.apply flags) ()
  else run_campaign ~skip_ablations ~skip_bechamel ~jobs ~json_file

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let cmd =
  let open Cmdliner in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  let term =
    Term.(
      const main
      $ flag [ "smoke" ] "Run the <60s artificial-suite sweep behind $(b,dune build @smoke)."
      $ flag [ "serve-smoke" ] "Replay the deterministic serve request mix, cold then warm."
      $ flag [ "serve-load" ]
          "Replay the full suite twice through a server and check it against the direct \
           pipeline."
      $ flag [ "skip-ablations" ] "Only Table 1 and Figures 9–10."
      $ flag [ "skip-bechamel" ] "Skip the micro-benchmark pass."
      $ Method_flags.term
      $ Arg.(
          value
          & opt (some positive_int) None
          & info [ "frontier-ceiling" ] ~docv:"ENTRIES"
              ~doc:
                "With $(b,--smoke): fail when the frontier high-water marks of the sweep's \
                 searches sum to more than $(docv) entries.")
      $ Arg.(
          value
          & opt positive_int (Stagg_util.Pool.default_jobs ())
          & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Run the sweeps on a pool of $(docv) domains.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable summary to $(docv)."))
  in
  Cmd.v
    (Cmd.info "main.exe" ~doc:"Regenerate the paper's evaluation and run the CI sweeps."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,main.exe --strip-schema-version SRC DST) copies SRC to DST minus its \
              schema_version line (the @smoke alias normalizes summaries with it).";
         ])
    term

let () =
  (* utility mode used by the @smoke alias; no campaign setup *)
  (match Sys.argv with
  | [| _; "--strip-schema-version"; src; dst |] ->
      strip_schema_version src dst;
      exit 0
  | _ -> ());
  (* The campaign's hot loops (A* frontier, validation memo) allocate
     heavily against a large live heap; the default space_overhead of 120
     spends ~20% of search wall time in major-GC marking. Trading memory
     for time is the right call on a benchmark harness. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 480 };
  exit (Cmdliner.Cmd.eval cmd)

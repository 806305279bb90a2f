(** The benchmark harness. One mode flag picks its job:

    - none: the paper's evaluation campaign (§8), every table and
      figure; [--skip-ablations] keeps only Table 1 and Figures 9–10;
    - [--smoke]: the <60s artificial-suite CI sweep ([dune build @smoke]
      runs it and diffs the JSON against the committed expectations);
      [--oracle] and [--frontier-ceiling] steer this mode only;
    - [--serve-smoke], [--serve-load]: the lift-as-a-service legs.

    Run with: [dune exec bench/main.exe]. Pass [--jobs N] (or [-j N]) to
    run on a pool of N domains (default:
    [Domain.recommended_domain_count ()]; [--jobs 1] reproduces the
    sequential harness exactly, modulo timing) and [--json FILE] to also
    write the machine-readable summary. Two mode flags, or a flag outside
    its mode, is a usage error (exit 124). [--help] lists every flag. *)

module Experiments = Stagg_report.Experiments
module Method_flags = Stagg_cmdline.Method_flags

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  Printf.eprintf "[bench] wrote %s\n%!" file

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
  Option.iter (fun file -> write_file file (smoke_json rows)) json_file;
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
   against committed expectations by the serve leg of @smoke: a drift
   means the cache/single-flight/remap behavior changed, not noise.

   [--serve-load] replays the full 77-benchmark suite twice through a
   server at configurable concurrency, asserts every answer is
   byte-identical to the direct (serverless) pipeline, that the warm
   pass never searches, and that the cache hit rate clears 50%; it
   records p50/p95/p99 latency and cache counters into a BENCH-style
   JSON snapshot. *)

module J = Stagg_serve.Json
module Cache = Stagg_serve.Cache

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
  | Some file -> write_file file (Buffer.contents buf)

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
  if s2.Cache.misses <> s1.Cache.misses then begin
    incr failures;
    Printf.eprintf "[bench] FAIL: warm pass ran %d fresh searches (expected 0)\n%!"
      (s2.Cache.misses - s1.Cache.misses)
  end;
  let lift_total = s2.Cache.hits + s2.Cache.misses + s2.Cache.joins in
  let hit_rate = float_of_int (s2.Cache.hits + s2.Cache.joins) /. float_of_int (max 1 lift_total) in
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
    solved (List.length benches) hit_rate p50 p95 p99 s2.Cache.hits s2.Cache.misses
    s2.Cache.joins s2.Cache.remaps s2.Cache.evictions s2.Cache.entries wall_s;
  Option.iter
    (fun file ->
      write_file file
        (Printf.sprintf
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
           s2.Cache.hits s2.Cache.misses s2.Cache.joins s2.Cache.remaps s2.Cache.evictions
           s2.Cache.entries))
    json_file;
  if !failures > 0 then begin
    Printf.eprintf "[bench] FAIL: %d serve-load check(s) failed\n%!" !failures;
    exit 1
  end

let run_campaign ~skip_ablations ~jobs ~json_file =
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
  print_string (Experiments.report runs);
  print_newline ();
  Printf.printf "== machine-readable summary (method, solved, avg time over solved, avg attempts) ==\n";
  print_string (Experiments.summary runs);
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal harness time: %.1fs\n" wall_s;
  Option.iter
    (fun file -> write_file file (Experiments.json_summary ~jobs ~wall_s runs))
    json_file

type mode = Campaign | Smoke | Serve_smoke | Serve_load

(* A flag that steers one mode is a usage error in any other: the
   campaign carries its own Trace and Trace+LLM rows, so [--oracle]
   would otherwise be silently ignored there. *)
let main mode skip_ablations (flags : Method_flags.t) frontier_ceiling jobs json_file =
  let misplaced =
    List.find_opt
      (fun (_, given, home, _) -> given && mode <> home)
      [
        ("--oracle", Option.is_some flags.oracle, Smoke, "--smoke");
        ("--frontier-ceiling", Option.is_some frontier_ceiling, Smoke, "--smoke");
        ("--skip-ablations", skip_ablations, Campaign, "the campaign (no mode flag)");
      ]
  in
  match misplaced with
  | Some (name, _, _, home) -> `Error (true, Printf.sprintf "%s applies only to %s" name home)
  | None ->
      (match mode with
      | Campaign -> run_campaign ~skip_ablations ~jobs ~json_file
      | Smoke -> run_smoke ~jobs ~json_file ~frontier_ceiling ~tune:(Method_flags.apply flags) ()
      | Serve_smoke -> run_serve_smoke ~jobs ~json_file ()
      | Serve_load -> run_serve_load ~jobs ~json_file ());
      `Ok ()

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let cmd =
  let open Cmdliner in
  let mode =
    Arg.(
      value
      & vflag Campaign
          [
            ( Smoke,
              info [ "smoke" ]
                ~doc:"Run the <60s artificial-suite sweep behind $(b,dune build @smoke)." );
            ( Serve_smoke,
              info [ "serve-smoke" ]
                ~doc:"Replay the deterministic serve request mix, cold then warm." );
            ( Serve_load,
              info [ "serve-load" ]
                ~doc:
                  "Replay the full suite twice through a server and check it against the direct \
                   pipeline." );
          ])
  in
  let term =
    Term.(
      ret
        (const main $ mode
        $ Arg.(value & flag & info [ "skip-ablations" ] ~doc:"Only Table 1 and Figures 9–10.")
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
            & info [ "json" ] ~docv:"FILE"
                ~doc:"Also write the machine-readable summary to $(docv).")))
  in
  Cmd.v (Cmd.info "main.exe" ~doc:"Regenerate the paper's evaluation and run the CI sweeps.") term

let () =
  (* The campaign's hot loops (A* frontier, validation memo) allocate
     heavily against a large live heap; the default space_overhead of 120
     spends ~20% of search wall time in major-GC marking. Trading memory
     for time is the right call on a benchmark harness. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 480 };
  exit (Cmdliner.Cmd.eval cmd)

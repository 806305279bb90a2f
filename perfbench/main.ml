(* perfbench — the repository's lifting benchmark.

   One invocation runs one workload for about [--seconds] seconds of
   measured work and prints, as the last line of standard output, one
   JSON object: [correct], [attempted], [failed] and [metrics]. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] they
   are the per-layer ones. The line before it is a provenance record
   (nproc, OCaml version, seed, per-metric sample counts, error
   fraction, host-speed factors and the uncorrected figures).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --write-expected perfbench/expected.ml

   Workloads. The method seed stays 20250604, so every lift's solved,
   attempt and expansion counts are checked against [Expected.table];
   the workload seed picks the serve order and renamings and the
   reference inputs of the answer check.

   - [search_bound]: STAGG^TD.FullGrammar and STAGG^BU.FullGrammar on
     six kernels drawn by search cost (see [search_draw]). A* does
     nearly all the work.
   - [validate_bound]: STAGG^BU, STAGG^BU.EqualProbability and
     C2TACO.NoHeuristics on all 77 kernels. Most time is in the
     validator.
   - [serve_mix]: the 77 kernels through [Server.process_line] from one
     closed-loop client, cold, then exact repeats, then seeded
     alpha-renamed variants — cache misses, hits and donor remaps. The
     only workload where the trace oracle runs. (Two client domains made
     a third of the runs take 1.5x as long on a 2-vCPU VM.)

   A run is a fixed number of epochs. Every epoch runs in a fresh forked
   process, so the validator memo, the per-domain template cache and the
   parse memo start empty each time, and the peak heap is the epoch's
   own. The fork and the workload's set-up (queries, server, requests)
   are timed as [setup_s], never as workload time, in set-up-only
   children between the epochs. Before the first epoch, between epochs
   and after the last, the run reads the host's speed with sensor.exe;
   end-to-end times are divided by the speed read around them.

   Tracing ([--trace 1]) alternates untraced and traced epochs. A traced
   epoch records a span around each request and each public call
   ([prefix_of_query], [prepared_of_prefix], [lift_prefixed],
   [C2taco.run], [process_line]), attaches the program-reported
   [validate_s]/[verify_s] as child durations and GC counter deltas,
   keeps the spans in memory and writes them to .perfbench/ at the end.
   After its measured loop it times the layers no workload call exposes
   on its own: parse, [Canon.fingerprint], [Trace.skeletons], a small
   serve probe (pipeline workloads), and a direct replay of every serve
   miss through the pipeline's public stages (serve_mix). *)

open Stagg_util
module Bench = Stagg_benchsuite.Bench
module Suite = Stagg_benchsuite.Suite
module Pipeline = Stagg.Pipeline
module Method_ = Stagg.Method_
module Result_ = Stagg.Result_
module Validator = Stagg_validate.Validator
module Server = Stagg_serve.Server
module Cache = Stagg_serve.Cache
module J = Stagg_serve.Json

let now = Unix.gettimeofday
let default_seed = 20250604

(* Drives the mock LLM and example generation. Fixed, so the committed
   per-kernel counts hold whatever the workload seed. *)
let method_seed = 20250604

(* ---- lifters ---- *)

type lifter = { key : string; meth : Method_.t option (* [None]: C2TACO.NoHeuristics *) }

let stagg key m = { key; meth = Some { m with Method_.seed = method_seed } }
let td_full = stagg "td_full" Method_.td_full_grammar
let bu_full = stagg "bu_full" Method_.bu_full_grammar
let td_drop_a = stagg "td_drop_a" (Method_.drop_all_penalties Method_.stagg_td "A")
let bu = stagg "bu" Method_.stagg_bu
let bu_equal = stagg "bu_equal" Method_.bu_equal_probability
let c2taco_noh = { key = "c2taco_noh"; meth = None }
let trace = stagg "trace" Method_.td_trace
let all_lifters = [ td_full; bu_full; td_drop_a; bu; bu_equal; c2taco_noh; trace ]

(* The matching rows of BENCH_2026-08-08e.json: solved, total attempts
   and total expansions over all 77 kernels. *)
let snapshot =
  [
    ("td_full", ("TD_FullGrammar", 57, 347161, 4249745));
    ("bu_full", ("BU_FullGrammar", 57, 564727, 2066087));
    ("td_drop_a", ("TD_DropA", 76, 140262, 373445));
    ("bu", ("STAGG_BU", 67, 4344, 13282));
    ("bu_equal", ("BU_Equal", 67, 47700, 67107));
    ("c2taco_noh", ("C2TACO_NoH", 68, 581533, 581533));
    ("trace", ("Trace", 76, 3347, 28983));
  ]

let expected =
  let t = Hashtbl.create 1024 in
  List.iter (fun (l, k, s, a, e) -> Hashtbl.replace t (l, k) (s, a, e)) Expected.table;
  t

let expected_of (l : lifter) (b : Bench.t) = Hashtbl.find_opt expected (l.key, b.name)

(* ---- workload plans ---- *)

type phase = Cold | Repeat | Variant of int (* renaming nonce *)
type item = Lift of lifter * Bench.t | Request of Bench.t * phase

let workloads = [ "search_bound"; "validate_bound"; "serve_mix" ]

(* Kernels whose committed FullGrammar outcomes (solved, attempts,
   expansions, for both searches) are identical run the same searches.
   Keeping the first kernel of each such class, the draw takes five
   evenly spaced over the mid band (both searches solve, 5k to 100k
   expansions between them) and the lightest of the budget-bound band
   (over 100k), TD then BU per kernel. The draw is fixed: a seeded draw
   moved throughput by a quarter from seed to seed even among kernels of
   one class (their validation and BMC costs differ), and cheap lifts
   measure process noise, not A*. *)
let search_draw () =
  let cost b =
    List.fold_left
      (fun acc l -> match expected_of l b with Some (_, _, e) -> acc + e | None -> acc)
      0 [ td_full; bu_full ]
  in
  let solved b =
    List.for_all
      (fun l -> match expected_of l b with Some (s, _, _) -> s | None -> false)
      [ td_full; bu_full ]
  in
  let seen = Hashtbl.create 64 in
  let firsts =
    List.filter
      (fun b ->
        let k = (expected_of td_full b, expected_of bu_full b) in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      Suite.all
    |> List.stable_sort (fun a b -> compare (cost a) (cost b))
  in
  let mid =
    Array.of_list (List.filter (fun b -> cost b >= 5_000 && cost b < 100_000 && solved b) firsts)
  in
  List.init 5 (fun i -> mid.(((2 * i) + 1) * Array.length mid / 10))
  @ [ List.find (fun b -> cost b >= 100_000) firsts ]

(* Every order is fixed, so every seed does the same work: runs at
   different seeds are compared as repeats, and a seeded order moved the
   figures by up to 15% through the state earlier operations leave (the
   validator memo, the heap, a serve request joining one in flight). The
   seed picks the serve renamings and the answer check's inputs. *)
let plan workload seed : item array =
  let prng = Prng.create ~seed in
  let lifts lifters benches =
    List.concat_map (fun b -> List.map (fun l -> Lift (l, b)) lifters) benches
  in
  let items =
    match workload with
    | "search_bound" -> lifts [ td_full; bu_full ] (search_draw ())
    | "validate_bound" ->
        lifts [ bu; bu_equal; c2taco_noh ] Suite.all
    | _ ->
        let nonces = List.map (fun b -> (b, Prng.int prng 0xfffff)) Suite.all in
        let phase f = List.map f nonces in
        phase (fun (b, _) -> Request (b, Cold))
        @ phase (fun (b, _) -> Request (b, Repeat))
        @ phase (fun (b, n) -> Request (b, Variant n))
  in
  Array.of_list items

(* ---- spans ---- *)

type span = {
  name : string;
  op : int;
  dur : float;
  minor : float;
  promoted : float;
  majors : int;
  children : (string * float) list;
}

let timed spans ~op ~name ?(children = fun _ -> []) f =
  match spans with
  | None -> f ()
  | Some acc ->
      let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
      let t0 = now () in
      let v = f () in
      let dur = now () -. t0 in
      let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
      acc :=
        {
          name;
          op;
          dur;
          minor = m1 -. m0;
          promoted = g1.promoted_words -. g0.promoted_words;
          majors = g1.major_collections - g0.major_collections;
          children = children v;
        }
        :: !acc;
      v

(* ---- per-operation samples ---- *)

type sample = {
  kernel : string;
  lifter : string;
  op_key : string;  (** with kernel and lifter, names the operation: the serve phase *)
  path : string;  (** "lift" for pipeline lifts, the serve cache path otherwise *)
  ms : float;  (** latency measured around the call, from outside *)
  program_s : float;  (** the time the program itself reports *)
  solved : bool;
  attempts : int;
  expansions : int;
  suppressed : int;
  pruned_rules : int;
  instantiations : int;
  failure : string option;
  error : string option;  (** why this operation counts as failed *)
  wrong : bool;  (** a wrong answer or a count that differs from the expectation *)
}

let blank =
  {
    kernel = "";
    lifter = "";
    op_key = "";
    path = "";
    ms = 0.;
    program_s = 0.;
    solved = false;
    attempts = 0;
    expansions = 0;
    suppressed = 0;
    pruned_rules = 0;
    instantiations = 0;
    failure = None;
    error = None;
    wrong = false;
  }

(* Failures in order of precedence: the wall-clock backstop (an early
   return that would read as a speed-up), a wrong answer, then counts
   that differ from the committed expectation. *)
let judge s ~answer_ok ~counts_ok =
  if s.failure = Some "timeout" then { s with error = Some "timeout" }
  else if not answer_ok then { s with error = Some "wrong answer"; wrong = true }
  else if not counts_ok then
    { s with error = Some "counts differ from the committed expectation"; wrong = true }
  else s

let counts_match exp (s : sample) =
  match exp with
  | Some (solved, attempts, expansions) ->
      solved = s.solved && attempts = s.attempts && expansions = s.expansions
  | None -> false

(* ---- the epoch's prepared work ---- *)

type request = {
  bench : Bench.t;
  id : string;
  phase : string;
  map : (string * string) list;  (** the variant's renaming; [] for an original *)
  src : string;
  sg : Stagg_minic.Signature.t;
  line : string;
}

type op = Op_lift of lifter * Bench.t | Op_request of request

(* Reference answers are drawn when an answer is checked, after the
   measured loop, so that no seed-dependent allocation precedes the loop:
   the search_bound heap peak otherwise jumped between two GC-pacing modes
   (650 and 920 MB) with the seed. *)
type refs = { seed : int; table : (string, Answer.reference list) Hashtbl.t }

type work = { ops : op array; refs : refs; server : Server.t }

(* Reference answers for one operation's kernel under the renaming
   [map]. The inputs are drawn from the kernel's seed, so a renamed
   variant sees the same values under its own names. *)
let references refs ~id (b : Bench.t) map sg =
  match Hashtbl.find_opt refs.table id with
  | Some r -> r
  | None ->
      let r =
        match Bench.truth b with
        | Some t ->
            Answer.references ~seed:(refs.seed lxor Hashtbl.hash b.name) sg (Answer.rename_taco map t)
        | None -> []
      in
      Hashtbl.replace refs.table id r;
      r

let request_line ~id ~src ~sg =
  J.to_string
    (J.Obj
       [
         ("id", J.String id);
         ("c", J.String src);
         ("sig", J.String (Stagg_minic.Sigspec.to_string sg));
       ])

(* One request for [b]: the original, or a seeded alpha-renamed variant. *)
let make_request (b : Bench.t) phase =
  let map, id =
    match phase with
    | Variant nonce -> (Answer.renaming ~nonce (Bench.func b), Printf.sprintf "%s~%x" b.name nonce)
    | Cold | Repeat -> ([], b.name)
  in
  let sg = Answer.rename_signature map b.signature in
  let src = Answer.rename_c map b.c_source in
  let phase = match phase with Cold -> "cold" | Repeat -> "repeat" | Variant _ -> "variant" in
  { bench = b; id; phase; map; src; sg; line = request_line ~id ~src ~sg }

let setup ~seed items =
  Validator.clear_memo ();
  Validator.reset_stats ();
  let ops =
    Array.map
      (function
        | Lift (l, b) ->
            ignore (Bench.func b);
            Op_lift (l, b)
        | Request (b, phase) -> Op_request (make_request b phase))
      items
  in
  { ops; refs = { seed; table = Hashtbl.create 256 }; server = Server.create () }

(* ---- running operations ---- *)

(* Runs [f] in a forked child and returns its marshalled result. The
   benchmark never spawns a domain, so fork is always allowed. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let v = f () in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc v [];
          close_out oc;
          0
        with e ->
          prerr_endline ("perfbench: child failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (v, status) with
      | Some v, Unix.WEXITED 0 -> v
      | _ -> failwith "a child process failed")

let lift_children (r : Result_.t) = [ ("validate", r.validate_s); ("verify", r.verify_s) ]

let lift spans ~op (l : lifter) (b : Bench.t) : Result_.t =
  match l.meth with
  | None ->
      timed spans ~op ~name:"lift" ~children:lift_children (fun () ->
          Stagg_baselines.C2taco.run ~seed:method_seed ~heuristics:false b)
  | Some m when Option.is_none spans -> Pipeline.run m b
  | Some m ->
      let q = Pipeline.query_of_bench m b in
      let p = timed spans ~op ~name:"oracle.prefix" (fun () -> Pipeline.prefix_of_query q) in
      Result.iter
        (fun p ->
          ignore (timed spans ~op ~name:"grammar.build" (fun () -> Pipeline.prepared_of_prefix m p)))
        p;
      timed spans ~op ~name:"lift" ~children:lift_children (fun () -> Pipeline.lift_prefixed m q p)

let sample_of_result (l : lifter) (b : Bench.t) ~ms refs (r : Result_.t) =
  let s =
    {
      kernel = b.name;
      lifter = l.key;
      op_key = "";
      path = "lift";
      ms;
      program_s = r.time_s;
      solved = r.solved;
      attempts = r.attempts;
      expansions = r.expansions;
      suppressed = r.suppressed;
      pruned_rules = r.pruned_rules;
      instantiations = r.instantiations;
      failure = r.failure;
      error = None;
      wrong = false;
    }
  in
  let answer_ok =
    match r.solution with
    | None -> not r.solved
    | Some sol -> Answer.agrees (references refs ~id:b.name b [] b.signature) sol.concrete
  in
  judge s ~answer_ok ~counts_ok:(counts_match (expected_of l b) s)

let run_lift spans ~op l b =
  let t0 = now () in
  let r = try Ok (lift spans ~op l b) with e -> Error e in
  ((now () -. t0) *. 1000., r)

let check_lift refs (l : lifter) (b : Bench.t) (ms, r) =
  match r with
  | Ok r -> sample_of_result l b ~ms refs r
  | Error e ->
      { blank with kernel = b.name; lifter = l.key; ms; error = Some ("exception: " ^ Printexc.to_string e) }

let str j k = Option.bind (J.member k j) J.to_str
let jint j k = Option.value (Option.bind (J.member k j) J.to_int) ~default:0

(* Checks one serve response. Every request must be answered as the
   direct pipeline answers its kernel (solved or not); a solved answer
   must agree with the renamed truth; a searched original must spend
   exactly the committed attempts and expansions. *)
let sample_of_response refs (r : request) ~ms line =
  let bench = r.bench in
  match J.of_string line with
  | Error e -> { blank with kernel = bench.name; lifter = "serve"; ms; error = Some ("bad response: " ^ e) }
  | Ok j ->
      let status = Option.value (str j "status") ~default:"?" in
      let s =
        {
          blank with
          kernel = bench.name;
          lifter = "serve";
          op_key = r.phase;
          path = Option.value (str j "cache") ~default:status;
          ms;
          program_s = Option.value (Option.bind (J.member "time_s" j) J.to_float) ~default:0.;
          solved = String.equal status "ok";
          attempts = jint j "attempts";
          expansions = jint j "expansions";
          instantiations = jint j "instantiations";
          failure = str j "failure";
        }
      in
      if String.equal status "error" then
        { s with error = Some ("status:error " ^ Option.value (str j "error") ~default:"") }
      else
        let exp = expected_of trace bench in
        let answer_ok =
          match (s.solved, str j "taco") with
          | false, _ -> true
          | true, None -> false
          | true, Some taco -> (
              match Stagg_taco.Parser.parse_program taco with
              | Ok p -> Answer.agrees (references refs ~id:r.id bench r.map r.sg) p
              | Error _ -> false)
        in
        let solved_ok = match exp with Some (solved, _, _) -> solved = s.solved | None -> false in
        let counts_ok =
          solved_ok && (r.map <> [] || (not (String.equal s.path "miss")) || counts_match exp s)
        in
        judge s ~answer_ok ~counts_ok

(* One closed-loop client: each request is sent when the previous
   answer is back. *)
let run_requests spans work =
  Array.mapi
    (fun i op ->
      match op with
      | Op_request r ->
          let acc = Option.map (fun _ -> ref []) spans in
          let t0 = now () in
          let resp =
            timed acc ~op:i ~name:"serve.request" (fun () ->
                Server.process_line work.server ~seq:i r.line)
          in
          let dt = now () -. t0 in
          (resp, dt, Option.bind acc (fun a -> List.nth_opt !a 0))
      | Op_lift _ -> ("", 0., None))
    work.ops

(* ---- side measurements of a traced epoch ---- *)

let distinct_benches ops =
  let seen = Hashtbl.create 128 in
  Array.to_list ops
  |> List.filter_map (fun op ->
         let b = match op with Op_lift (_, b) -> b | Op_request r -> r.bench in
         if Hashtbl.mem seen b.Bench.name then None
         else begin
           Hashtbl.add seen b.name ();
           Some b
         end)

let per_call_us reps items f =
  let t0 = now () in
  for _ = 1 to reps do
    List.iter f items
  done;
  (now () -. t0) *. 1e6 /. float_of_int (max 1 (reps * List.length items))

(* Parse and fingerprint cost per kernel source, and trace-oracle cost
   per kernel, timed directly on the public functions. *)
let layer_probes ops =
  let benches = distinct_benches ops in
  let sources =
    Array.to_list ops
    |> List.map (function
         | Op_request r -> (r.src, r.sg)
         | Op_lift (_, b) -> (b.c_source, b.signature))
    |> List.sort_uniq compare
  in
  let parse_us =
    per_call_us 20 sources (fun (c, _) -> ignore (Stagg_minic.Parser.parse_function c))
  in
  let parsed =
    List.filter_map
      (fun (c, sg) -> Result.to_option (Result.map (fun f -> (f, sg)) (Stagg_minic.Parser.parse_function c)))
      sources
  in
  let canon_us =
    per_call_us 20 parsed (fun (f, sg) -> ignore (Stagg_minic.Canon.fingerprint ~signature:sg f))
  in
  let refusals = ref 0 in
  let t0 = now () in
  List.iter
    (fun (b : Bench.t) ->
      match Stagg_oracle.Trace.skeletons (Bench.func b) b.signature with
      | Ok _ -> ()
      | Error _ -> incr refusals)
    benches;
  let trace_ms = (now () -. t0) *. 1000. /. float_of_int (max 1 (List.length benches)) in
  [
    ("minic.parse_us", parse_us);
    ("minic.canon_us", canon_us);
    ("oracle.trace_ms_per_kernel", trace_ms);
    ("oracle.trace_refusals", float_of_int !refusals);
  ]

(* The serve layer on a pipeline workload: the three drawn kernels the
   trace oracle lifts most cheaply, sent cold, repeated, then renamed,
   through a fresh server. *)
let serve_probe spans ~seed ops =
  let cheap =
    distinct_benches ops
    |> List.filter_map (fun b ->
           match expected_of trace b with
           | Some (true, _, e) -> Some (e, b.Bench.name, b)
           | _ -> None)
    |> List.sort (fun (e1, n1, _) (e2, n2, _) -> compare (e1, n1) (e2, n2))
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (_, _, b) -> b)
  in
  let refs = { seed; table = Hashtbl.create 16 } in
  let reqs =
    List.concat_map
      (fun phase -> List.map (fun b -> make_request b phase) cheap)
      [ Cold; Repeat; Variant (seed land 0xfffff) ]
  in
  let server = Server.create () in
  let samples =
    List.mapi
      (fun i (r : request) ->
        let t0 = now () in
        let resp =
          timed spans ~op:(-1 - i) ~name:"serve.probe" (fun () ->
              Server.process_line server ~seq:i r.line)
        in
        sample_of_response refs r ~ms:((now () -. t0) *. 1000.) resp)
      reqs
  in
  (samples, Server.cache_stats server)

(* ---- statistics ---- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail: the mean of the slowest tenth of the samples, and at least
   ten of them. The 11th-largest sample jumped by up to 2x between runs
   when it sat on the gap between two kernels' latencies (on
   search_bound it was the slowest mid-band lift, right below the ten
   budget-bound ones); the mean beyond the 90th percentile moves
   smoothly. *)
let tail_count n = min n (max 10 (n / 10))

let tail_mean xs =
  let a = Array.of_list (List.sort (fun x y -> compare y x) xs) in
  let k = tail_count (Array.length a) in
  if k = 0 then 0. else Array.fold_left ( +. ) 0. (Array.sub a 0 k) /. float_of_int k

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

(* ---- host speed ----

   A shared host runs this machine at a speed that drifts by half and
   more within minutes, and the lifter, which allocates and collects a
   lot, slows with it several times more than an arithmetic loop does.
   So the run reads the host's speed with sensor.exe (see sensor.ml), a
   fixed allocation-heavy workload in a process of its own, before the
   first epoch, between epochs and after the last. An epoch's speed
   factor is the mean of the two readings around it; its latencies are
   divided by that factor, and set-up times by the reading they follow.
   The uncorrected figures stay in the provenance record. *)

let sensor_exe = Filename.concat (Filename.dirname Sys.executable_name) "sensor.exe"

(* The sensor's median reading on the 2-core x86-64 VM the bounds were
   set on. *)
let sensor_nominal_ms = 65.

(* One reading: the median of eleven runs of the reference workload,
   over its nominal time. *)
let read_speed () =
  let ic = Unix.open_process_args_in sensor_exe [| sensor_exe; "11" |] in
  let rec lines acc =
    match input_line ic with
    | l -> lines (float_of_string_opt l :: acc)
    | exception End_of_file -> acc
  in
  let ms = lines [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when ms <> [] && List.for_all Option.is_some ms ->
      median (List.filter_map Fun.id ms) /. sensor_nominal_ms
  | _ -> failwith "sensor.exe failed"

(* ---- one epoch, in a forked child ---- *)

type epoch = {
  traced : bool;
  setup_s : float;
  wall_s : float;
  speed : float;  (** the host-speed factor read around the epoch (set by the parent) *)
  samples : sample array;  (** the measured operations *)
  side : sample array;  (** serve probe or serve-miss replay (traced epochs) *)
  spans : span list;
  top_heap_words : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  memo_hits : int;
  memo_misses : int;
  template_compiles : int;
  cache : Cache.stats option;
  probes : (string * float) list;
}

let run_epoch ~seed ~t_fork ~traced ~setup_only items =
  let work = setup ~seed items in
  let setup_s = now () -. t_fork in
  let empty =
    {
      traced;
      setup_s;
      wall_s = 0.;
      speed = 1.;
      samples = [||];
      side = [||];
      spans = [];
      top_heap_words = 0;
      minor_words = 0.;
      promoted_words = 0.;
      major_collections = 0;
      memo_hits = 0;
      memo_misses = 0;
      template_compiles = 0;
      cache = None;
      probes = [];
    }
  in
  if setup_only then empty
  else begin
    let spans = if traced then Some (ref []) else None in
    let serving = match work.ops.(0) with Op_request _ -> true | Op_lift _ -> false in
    let g0 = Gc.quick_stat () and v0 = Validator.stats () in
    let t0 = now () in
    let lifts = ref [] in
    let raw_requests =
      if serving then run_requests spans work
      else begin
        Array.iteri
          (fun i op ->
            match op with
            | Op_lift (l, b) -> lifts := (l, b, run_lift spans ~op:i l b) :: !lifts
            | Op_request _ -> ())
          work.ops;
        [||]
      end
    in
    let wall_s = now () -. t0 in
    let g1 = Gc.quick_stat () and v1 = Validator.stats () in
    let samples =
      if serving then
        Array.mapi
          (fun i (resp, dt, span) ->
            (match (spans, span) with Some acc, Some sp -> acc := sp :: !acc | _ -> ());
            match work.ops.(i) with
            | Op_request r ->
                sample_of_response work.refs r ~ms:(dt *. 1000.) resp
            | Op_lift _ -> blank)
          raw_requests
      else Array.of_list (List.rev_map (fun (l, b, out) -> check_lift work.refs l b out) !lifts)
    in
    let cache = ref (if serving then Some (Server.cache_stats work.server) else None) in
    let side, probes =
      if not traced then ([||], [])
      else
        let probes = layer_probes work.ops in
        if serving then
          (* a miss's inner stages are opaque behind process_line; replay
             each searched original through the pipeline's public stages
             to attribute its time to layers *)
          let replay =
            Array.to_list samples
            |> List.filteri (fun i (s : sample) ->
                   String.equal s.path "miss"
                   && match work.ops.(i) with Op_request r -> r.map = [] | Op_lift _ -> false)
            |> List.mapi (fun i (s : sample) ->
                   let b = Option.get (Suite.find s.kernel) in
                   check_lift work.refs trace b (run_lift spans ~op:(100_000 + i) trace b))
          in
          (Array.of_list replay, probes)
        else
          let probe, stats = serve_probe spans ~seed work.ops in
          cache := Some stats;
          (Array.of_list probe, probes)
    in
    {
      empty with
      wall_s;
      samples;
      side;
      spans = (match spans with Some acc -> List.rev !acc | None -> []);
      top_heap_words = g1.top_heap_words;
      minor_words = g1.minor_words -. g0.minor_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      major_collections = g1.major_collections - g0.major_collections;
      memo_hits = v1.memo_hits - v0.memo_hits;
      memo_misses = v1.memo_misses - v0.memo_misses;
      template_compiles = v1.template_compiles - v0.template_compiles;
      cache = !cache;
      probes;
    }
  end

(* Every epoch of a run holds the same operations. The median latency
   of each operation over the epochs, then the median over operations,
   is what one slow stretch of a shared host cannot move. *)
let per_op_medians ~speed (epochs : epoch list) : float list =
  let t = Hashtbl.create 512 in
  List.iter
    (fun (e : epoch) ->
      Array.iter
        (fun (s : sample) ->
          let k = (s.kernel, s.lifter, s.op_key) in
          Hashtbl.replace t k ((s.ms /. speed e) :: Option.value (Hashtbl.find_opt t k) ~default:[]))
        e.samples)
    epochs;
  Hashtbl.fold (fun _ ms acc -> median ms :: acc) t []

(* ---- per-layer numbers of one traced epoch ---- *)

let layer_metrics (e : epoch) =
  let spans name = List.filter (fun (s : span) -> String.equal s.name name) e.spans in
  let total name = sumf (fun (s : span) -> s.dur) (spans name) in
  let child name (s : span) = Option.value (List.assoc_opt name s.children) ~default:0. in
  let lifts = spans "lift" in
  let prefix_s = total "oracle.prefix" and grammar_s = total "grammar.build" in
  let lift_s = total "lift" in
  let validate_s = sumf (child "validate") lifts and verify_s = sumf (child "verify") lifts in
  let search_self = lift_s -. validate_s and validate_self = validate_s -. verify_s in
  let samples = Array.to_list e.samples in
  let serving = List.exists (fun (s : sample) -> String.equal s.lifter "serve") samples in
  (* the samples whose lifts ran the pipeline's stages in this process *)
  let layer = if serving then Array.to_list e.side else samples in
  let requests = if serving then samples else Array.to_list e.side in
  let expansions = sumi (fun (s : sample) -> s.expansions) layer in
  let attempts = sumi (fun (s : sample) -> s.attempts) layer in
  let instantiations = sumi (fun (s : sample) -> s.instantiations) layer in
  (* shares are of the measured operations' time; the report numbers
     cover every operation, the serve probe and miss replay included *)
  let measured_s = sumf (fun (s : sample) -> s.ms /. 1000.) samples in
  let ops = samples @ Array.to_list e.side in
  let outside_s = sumf (fun (s : sample) -> s.ms /. 1000.) ops in
  let program_s = sumf (fun (s : sample) -> s.program_s) ops in
  let path p = List.filter (fun (s : sample) -> String.equal s.path p) requests in
  let path_ms ps = median (List.map (fun (s : sample) -> s.ms) (List.concat_map path ps)) in
  let hits = List.length (path "hit") + List.length (path "join") in
  let attributed = prefix_s +. grammar_s +. lift_s in
  let unattributed =
    if serving then
      measured_s -. attributed
      -. sumf (fun (s : sample) -> s.ms /. 1000.) (List.concat_map path [ "hit"; "join"; "remap" ])
    else e.wall_s -. attributed
  in
  let cache f = match e.cache with Some c -> float_of_int (f c) | None -> 0. in
  [
    ("search.self_s", search_self);
    ("search.expansions", float_of_int expansions);
    ("search.us_per_expansion", ratio (search_self *. 1e6) (float_of_int expansions));
    ("search.words_per_expansion", ratio (sumf (fun (s : span) -> s.minor) lifts) (float_of_int expansions));
    ("search.suppressed", float_of_int (sumi (fun (s : sample) -> s.suppressed) layer));
    ( "search.budget_stops",
      float_of_int
        (List.length (List.filter (fun (s : sample) -> s.failure = Some "budget exceeded") layer)) );
    ("search.share", ratio search_self measured_s);
    ("validate.self_s", validate_self);
    ("validate.instantiations", float_of_int instantiations);
    ("validate.inst_per_s", ratio (float_of_int instantiations) validate_s);
    ("validate.memo_hit_frac", ratio (float_of_int e.memo_hits) (float_of_int (e.memo_hits + e.memo_misses)));
    ("validate.template_compiles", float_of_int e.template_compiles);
    ( "validate.solves_per_attempt",
      ratio (float_of_int (List.length (List.filter (fun (s : sample) -> s.solved) layer))) (float_of_int attempts) );
    ("validate.share", ratio validate_self measured_s);
    ("verify.s", verify_s);
    ("oracle.prefix_ms", prefix_s *. 1000.);
    ("oracle.share", ratio prefix_s measured_s);
    ("grammar.build_ms", grammar_s *. 1000.);
    ("grammar.doomed_rules", float_of_int (sumi (fun (s : sample) -> s.pruned_rules) layer));
    ("serve.hit_ms_p50", path_ms [ "hit"; "join" ]);
    ("serve.remap_ms_p50", path_ms [ "remap" ]);
    ("serve.miss_ms_p50", path_ms [ "miss" ]);
    ("serve.hit_frac", ratio (float_of_int hits) (float_of_int (List.length requests)));
    ("serve.remaps", cache (fun c -> c.Cache.remaps));
    ("serve.evictions", cache (fun c -> c.Cache.evictions));
    ("span.unattributed_s", unattributed);
    ("report.outside_s", outside_s);
    ("report.program_s", program_s);
    ("report.gap_frac", ratio (outside_s -. program_s) outside_s);
  ]
  @ e.probes

(* ---- metric tables: names and units as in BENCHMARK.json ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("lifts_per_s", "1/s");
    ("lift_p50_ms", "ms");
    ("lift_tail_ms", "ms");
    ("solved_frac", "frac");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("search.self_s", "s");
    ("search.expansions", "count");
    ("search.us_per_expansion", "us");
    ("search.words_per_expansion", "words");
    ("search.suppressed", "count");
    ("search.budget_stops", "count");
    ("search.share", "frac");
    ("validate.self_s", "s");
    ("validate.instantiations", "count");
    ("validate.inst_per_s", "1/s");
    ("validate.memo_hit_frac", "frac");
    ("validate.template_compiles", "count");
    ("validate.solves_per_attempt", "frac");
    ("validate.share", "frac");
    ("verify.s", "s");
    ("oracle.prefix_ms", "ms");
    ("oracle.trace_ms_per_kernel", "ms");
    ("oracle.trace_refusals", "count");
    ("oracle.share", "frac");
    ("grammar.build_ms", "ms");
    ("grammar.doomed_rules", "count");
    ("minic.parse_us", "us");
    ("minic.canon_us", "us");
    ("serve.hit_ms_p50", "ms");
    ("serve.remap_ms_p50", "ms");
    ("serve.miss_ms_p50", "ms");
    ("serve.hit_frac", "frac");
    ("serve.remaps", "count");
    ("serve.evictions", "count");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("span.unattributed_s", "s");
    ("span.overhead_frac", "frac");
    ("report.outside_s", "s");
    ("report.program_s", "s");
    ("report.gap_frac", "frac");
  ]

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json table values =
  table
  |> List.map (fun (name, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (num (Option.value (List.assoc_opt name values) ~default:0.))
           unit)
  |> String.concat ", "

(* ---- spans out ---- *)

let write_spans ~workload ~seed epochs =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" workload seed in
  let oc = open_out file in
  List.iteri
    (fun k (e : epoch) ->
      List.iter
        (fun (s : span) ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("epoch", J.Int k);
                    ("op", J.Int s.op);
                    ("name", J.String s.name);
                    ("dur_s", J.Float s.dur);
                    ("minor_words", J.Float s.minor);
                    ("promoted_words", J.Float s.promoted);
                    ("major_collections", J.Int s.majors);
                    ("children", J.Obj (List.map (fun (n, d) -> (n, J.Float d)) s.children));
                  ]));
          output_char oc '\n')
        e.spans)
    epochs;
  close_out oc;
  file

(* ---- the run ---- *)

(* Wall time of one untraced epoch on a 2-core x86-64 VM (OCaml 5.1.1). *)
let nominal_epoch_s = function "search_bound" -> 5. | "validate_bound" -> 5. | _ -> 4.5

let run ~workload ~seed ~seconds ~trace =
  let started = now () in
  let items = plan workload seed in
  let child ~traced ~setup_only =
    (* every child starts from the same collected heap *)
    Gc.full_major ();
    let t_fork = now () in
    in_child (fun () ->
        run_epoch ~seed ~t_fork ~traced ~setup_only items)
  in
  (* A boundary reads the host's speed, then times set-up-only
     children: set-up takes a few milliseconds, so a run times many. *)
  let boundary () =
    let speed = read_speed () in
    (speed, List.init 3 (fun _ -> (child ~traced:false ~setup_only:true).setup_s))
  in
  (* A fixed number of whole epochs fills [seconds] at the workload's
     nominal epoch length: a count that followed the clock would change
     which sample is the tail. Tracing alternates untraced and traced
     epochs and needs at least one of each. A run stops early only to
     stay within its time limit on a much slower machine. *)
  let n_epochs = max 2 (int_of_float (Float.round (float_of_int seconds /. nominal_epoch_s workload))) in
  let rec loop k (speed, _) epochs boundaries =
    if k = n_epochs || (k >= 2 && now () -. started > 120.) then (List.rev epochs, List.rev boundaries)
    else
      let e = child ~traced:(trace && k mod 2 = 1) ~setup_only:false in
      let ((speed', _) as after) = boundary () in
      loop (k + 1) after ({ e with speed = (speed +. speed') /. 2. } :: epochs) (after :: boundaries)
  in
  let first = boundary () in
  let epochs, boundaries = loop 0 first [] [ first ] in
  let untraced = List.filter (fun (e : epoch) -> not e.traced) epochs in
  let traced_epochs = List.filter (fun (e : epoch) -> e.traced) epochs in
  let all_samples = List.concat_map (fun (e : epoch) -> Array.to_list e.samples @ Array.to_list e.side) epochs in
  let measured = List.concat_map (fun (e : epoch) -> Array.to_list e.samples) untraced in
  let attempted = List.length all_samples in
  let failed = List.length (List.filter (fun (s : sample) -> s.error <> None) all_samples) in
  (* at the default seed, a lifter that covered the whole suite in an
     epoch must reproduce the committed snapshot row exactly *)
  let snapshot_ok =
    seed <> default_seed
    || List.for_all
         (fun (e : epoch) ->
           List.for_all
             (fun (key, (_, solved, attempts, expansions)) ->
               let mine = List.filter (fun (s : sample) -> String.equal s.lifter key) (Array.to_list e.samples) in
               List.length mine <> List.length Suite.all
               || (List.length (List.filter (fun (s : sample) -> s.solved) mine) = solved
                  && sumi (fun (s : sample) -> s.attempts) mine = attempts
                  && sumi (fun (s : sample) -> s.expansions) mine = expansions))
             snapshot)
         epochs
  in
  let correct = snapshot_ok && not (List.exists (fun (s : sample) -> s.wrong) all_samples) in
  List.iter
    (fun (s : sample) ->
      Option.iter
        (fun why -> Printf.eprintf "perfbench: %s/%s (%s): %s\n" s.kernel s.lifter s.path why)
        s.error)
    all_samples;
  if not snapshot_ok then prerr_endline "perfbench: totals differ from BENCH_2026-08-08e.json";
  let setup_samples = List.concat_map snd boundaries in
  (* Throughput and the median come from each operation's median over
     the epochs, which a slow stretch of a few seconds cannot move;
     [lifts_per_s] is the operations of one epoch over the sum of those
     medians. *)
  let e2e ~corrected =
    let speed (e : epoch) = if corrected then e.speed else 1. in
    let per_epoch f = median (List.map f untraced) in
    let per_op = per_op_medians ~speed untraced in
    let lat =
      List.concat_map
        (fun (e : epoch) -> List.map (fun (s : sample) -> s.ms /. speed e) (Array.to_list e.samples))
        untraced
    in
    [
      ( "setup_s",
        median
          (List.concat_map
             (fun (sp, ss) -> List.map (fun s -> if corrected then s /. sp else s) ss)
             boundaries) );
      ("lifts_per_s", ratio (float_of_int (List.length per_op)) (sumf Fun.id per_op /. 1000.));
      ("lift_p50_ms", median per_op);
      ("lift_tail_ms", tail_mean lat);
      ( "solved_frac",
        ratio (float_of_int (List.length (List.filter (fun (s : sample) -> s.solved) measured)))
          (float_of_int (List.length measured)) );
      ( "peak_heap_mb",
        per_epoch (fun e -> float_of_int (e.top_heap_words * (Sys.word_size / 8)) /. 1e6) );
    ]
  in
  let raw = e2e ~corrected:false in
  let e2e = e2e ~corrected:true in
  let layers =
    if not trace then []
    else
      let per_epoch = List.map layer_metrics traced_epochs in
      (* both kinds of epoch at the host speed read around them *)
      let wall es = median (List.map (fun (e : epoch) -> e.wall_s /. e.speed) es) in
      (* GC totals come from the untraced epochs, which spans do not perturb *)
      let gc f = median (List.map f untraced) in
      [
        ("gc.minor_words", gc (fun e -> e.minor_words));
        ("gc.promoted_words", gc (fun e -> e.promoted_words));
        ("gc.major_collections", gc (fun e -> float_of_int e.major_collections));
        ("span.overhead_frac", ratio (wall traced_epochs -. wall untraced) (wall untraced));
      ]
      @ List.map (fun (n, _) -> (n, median (List.filter_map (List.assoc_opt n) per_epoch))) per_layer
  in
  let spans_file = if trace then Some (write_spans ~workload ~seed traced_epochs) else None in
  let provenance =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("method_seed", J.Int method_seed);
        ("trace", J.Bool trace);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ( "kernels",
          J.List
            (List.sort_uniq compare
               (Array.to_list
                  (Array.map
                     (function Lift (_, b) | Request (b, _) -> b.Bench.name)
                     items))
            |> List.map (fun n -> J.String n)) );
        ("ocaml", J.String Sys.ocaml_version);
        ("epochs", J.Int (List.length untraced));
        ("epoch_walls_s", J.List (List.map (fun (e : epoch) -> J.Float e.wall_s) epochs));
        ("traced_epochs", J.Int (List.length traced_epochs));
        ("error_frac", J.Float (ratio (float_of_int failed) (float_of_int (max 1 attempted))));
        ( "lift_tail",
          J.String
            (Printf.sprintf "mean of the slowest %d of %d samples"
               (tail_count (List.length measured)) (List.length measured)) );
        ("speed_factors", J.List (List.map (fun (sp, _) -> J.Float sp) boundaries));
        ("uncorrected", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) raw));
        ( "samples",
          J.Obj
            [
              ("setup_s", J.Int (List.length setup_samples));
              ("lifts_per_s", J.Int (List.length measured));
              ("lift_p50_ms", J.Int (List.length measured));
              ("lift_tail_ms", J.Int (List.length measured));
              ("solved_frac", J.Int (List.length measured));
              ("peak_heap_mb", J.Int (List.length untraced));
              ("per_layer", J.Int (List.length traced_epochs));
            ] );
        ("spans_file", match spans_file with Some f -> J.String f | None -> J.Null);
      ]
  in
  print_endline (J.to_string (J.Obj [ ("provenance", provenance) ]));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (if trace then metrics_json per_layer layers else metrics_json end_to_end e2e)

(* ---- regenerating the expected table ---- *)

let write_expected file =
  let rows =
    List.concat_map
      (fun (l : lifter) ->
        Validator.clear_memo ();
        let t0 = now () in
        let rs =
          List.map
            (fun (b : Bench.t) ->
              let r = lift None ~op:0 l b in
              (l.key, b.name, r.solved, r.attempts, r.expansions))
            Suite.all
        in
        Printf.eprintf "perfbench: %s over %d kernels in %.1fs\n%!" l.key (List.length rs)
          (now () -. t0);
        rs)
      all_lifters
  in
  let ok = ref true in
  List.iter
    (fun (key, (row, solved, attempts, expansions)) ->
      let mine = List.filter (fun (k, _, _, _, _) -> String.equal k key) rows in
      let s = List.length (List.filter (fun (_, _, sv, _, _) -> sv) mine) in
      let a = sumi (fun (_, _, _, a, _) -> a) mine and e = sumi (fun (_, _, _, _, e) -> e) mine in
      if (s, a, e) <> (solved, attempts, expansions) then begin
        ok := false;
        Printf.eprintf "perfbench: %s totals (%d, %d, %d) differ from snapshot row %s (%d, %d, %d)\n"
          key s a e row solved attempts expansions
      end)
    snapshot;
  if not !ok then exit 1;
  let oc = open_out file in
  output_string oc
    "(* Per-kernel outcomes at method seed 20250604: (lifter, kernel, solved,\n\
    \   attempts, expansions). Generated by [main.exe --write-expected]; the\n\
    \   per-lifter totals equal the matching rows of BENCH_2026-08-08e.json. *)\n\n\
     let table : (string * string * bool * int * int) list =\n  [\n";
  List.iter
    (fun (k, n, s, a, e) -> Printf.fprintf oc "    (%S, %S, %b, %d, %d);\n" k n s a e)
    rows;
  output_string oc "  ]\n";
  close_out oc

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload search_bound|validate_bound|serve_mix --seed N --seconds S \
     --trace 0|1\n\
    \       main.exe --write-expected FILE";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 30 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := (match int_of_string_opt n with Some n when n > 0 -> n | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | [ "--write-expected"; file ] ->
        write_expected file;
        exit 0
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when List.mem w workloads ->
      if Expected.table = [] then begin
        prerr_endline "perfbench: Expected.table is empty; regenerate it with --write-expected";
        exit 2
      end;
      run ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
  | _ -> usage ()

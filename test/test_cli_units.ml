(* Unit coverage for CLI-adjacent plumbing that the binary exercises:
   query construction, replay-driven lifting, the end-to-end lift-file
   path (without spawning a process), and the method-flag term shared by
   the CLI and the bench harness. *)

module Sig = Stagg_minic.Signature

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let rowsum_c =
  {|
void row_sums(int N, int M, int* A, int* R) {
  int i, j;
  for (i = 0; i < N; i++) {
    int s = 0;
    for (j = 0; j < M; j++) s += A[i * M + j];
    R[i] = s;
  }
}
|}

let rowsum_query transcript =
  {
    Stagg.Pipeline.qname = "rowsum";
    func = Stagg_minic.Parser.parse_function_exn rowsum_c;
    signature =
      Result.get_ok (Stagg_minic.Sigspec.parse "N:size,M:size,A:arr[N,M],R:out[N]");
    c_source = rowsum_c;
    client = Stagg_oracle.Replay.of_lines transcript;
    oracle = Stagg.Method_.Oracle_llm;
  }

let test_lift_with_replay () =
  let q =
    rowsum_query
      [ "R(i) = sum(j, A(i,j))"; "r(x) := a(x, y)"; "R(i) = A(j,i)"; "sums(f) = M(f, g)" ]
  in
  let r = Stagg.Pipeline.lift Stagg.Method_.stagg_td q in
  check_bool "lifted from a recorded transcript" true r.Stagg.Result_.solved;
  match r.solution with
  | Some sol ->
      check_string "row sums" "R(i) = A(i, j)" (Stagg_taco.Pretty.program_to_string sol.concrete)
  | None -> Alcotest.fail "no solution"

let test_lift_with_empty_transcript () =
  let r = Stagg.Pipeline.lift Stagg.Method_.stagg_td (rowsum_query []) in
  check_bool "no candidates, no solve" false r.Stagg.Result_.solved;
  check_string "reason reported" "no syntactically valid LLM candidates"
    (Option.value ~default:"" r.failure)

let test_lift_with_garbage_transcript () =
  let r =
    Stagg.Pipeline.lift Stagg.Method_.stagg_td
      (rowsum_query [ "I am sorry, I cannot do that."; "```python"; "x = 1" ])
  in
  check_bool "garbage transcript fails cleanly" false r.Stagg.Result_.solved

let test_query_of_bench_uses_mock () =
  let b = Option.get (Stagg_benchsuite.Suite.find "art_gemv") in
  let q = Stagg.Pipeline.query_of_bench Stagg.Method_.stagg_td b in
  let (module C) = q.client in
  let lines = C.query ~prompt:"p" in
  check_bool "mock yields responses" true (List.length lines >= 10)

(* ---- the shared method-flag term ---- *)

module Method_flags = Stagg_cmdline.Method_flags

let eval_flags args =
  let cmd =
    Cmdliner.Cmd.v (Cmdliner.Cmd.info "t")
      Cmdliner.Term.(const Method_flags.apply $ Method_flags.term $ const Stagg.Method_.stagg_td)
  in
  Cmdliner.Cmd.eval_value ~err:Format.str_formatter ~argv:(Array.of_list ("t" :: args)) cmd

let check_method args (expected : Stagg.Method_.t) =
  match eval_flags args with
  | Ok (`Ok m) -> check_bool (String.concat " " args) true (m = expected)
  | _ -> Alcotest.failf "%s: did not evaluate" (String.concat " " args)

let test_flags_map_to_method () =
  let td = Stagg.Method_.stagg_td in
  check_method [] td;
  check_method [ "--oracle"; "default" ] td;
  check_method [ "--oracle"; "trace+llm" ] { td with oracle = Stagg.Method_.Oracle_trace_llm };
  check_method [ "--oracle"; "trace" ] { td with oracle = Stagg.Method_.Oracle_trace }

(* All are cmdliner usage errors (exit 124): a bad enum value fails
   to parse, and the validator-mode and analysis-off flags, removed with
   the knobs they set, are now unknown options. *)
let test_bad_flag_values_rejected () =
  check_bool "--oracle gpt" true (eval_flags [ "--oracle"; "gpt" ] = Error `Parse);
  check_bool "--batched-validate off" true
    (eval_flags [ "--batched-validate"; "off" ] = Error `Term);
  check_bool "--no-analysis" true (eval_flags [ "--no-analysis" ] = Error `Term)

let () =
  Alcotest.run "stagg_cli_units"
    [
      ( "lift-file path",
        [
          Alcotest.test_case "replay transcript" `Slow test_lift_with_replay;
          Alcotest.test_case "empty transcript" `Quick test_lift_with_empty_transcript;
          Alcotest.test_case "garbage transcript" `Quick test_lift_with_garbage_transcript;
          Alcotest.test_case "benchmark query uses the mock" `Quick test_query_of_bench_uses_mock;
        ] );
      ( "method flags",
        [
          Alcotest.test_case "argv maps to the expected method" `Quick test_flags_map_to_method;
          Alcotest.test_case "bad values are parse errors" `Quick test_bad_flag_values_rejected;
        ] );
    ]

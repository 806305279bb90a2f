(** Method configurations: which search, which grammar, which penalties —
    the knobs behind every row of Tables 1–3 and Figures 9–12. *)

open Stagg_search

type search_kind = Top_down | Bottom_up

type oracle =
  | Oracle_llm  (** candidates come from the (mock) LLM only — the paper *)
  | Oracle_trace  (** candidates come from the trace oracle only — no LLM *)
  | Oracle_trace_llm  (** union: trace templates first, then LLM responses *)

let oracle_to_string = function
  | Oracle_llm -> "llm"
  | Oracle_trace -> "trace"
  | Oracle_trace_llm -> "trace+llm"

type grammar_mode =
  | Refined  (** dimension-list-refined grammar, learned probabilities (STAGG) *)
  | Equal_probability  (** refined grammar, uniform probabilities *)
  | Llm_grammar  (** full TACO grammar, learned probabilities *)
  | Full_grammar  (** full TACO grammar, uniform probabilities *)

type t = {
  label : string;
  search : search_kind;
  grammar : grammar_mode;
  penalties : Penalty.criterion list;
  budget : Astar.budget;
  max_depth : int;  (** top-down depth limit (§5.1) *)
  verify : bool;  (** bounded verification of validated candidates (§7) *)
  seed : int;  (** drives the mock LLM and example generation *)
  oracle : oracle;
      (** where candidate templates come from ({!Oracle_llm} by default).
          Orthogonal to every other knob: with [Oracle_llm] the pipeline
          is byte-identical to a build without the trace oracle. *)
}

(* The attempt/expansion caps are the binding limits: they are
   deterministic, so solve/fail outcomes do not flip with machine load.
   The wall-clock limit is a backstop (the paper used 60 minutes). *)
let default_budget = { Astar.max_attempts = 60_000; max_expansions = 300_000; timeout_s = 10. }

let base search grammar penalties label =
  {
    label;
    search;
    grammar;
    penalties;
    budget = default_budget;
    max_depth = 6;
    verify = true;
    seed = 20250604;
    oracle = Oracle_llm;
  }

(** The same method drawing candidates from the given oracle; label
    unchanged, for differential runs ([--oracle llm] must diff cleanly
    against a default run). *)
let with_oracle m oracle = { m with oracle }

let stagg_td = base Top_down Refined Penalty.all_topdown "STAGG^TD"
let stagg_bu = base Bottom_up Refined Penalty.all_bottomup "STAGG^BU"

(* The trace-oracle method rows: STAGG^TD with candidates extracted from
   the kernel's own execution trace — alone, and unioned with the LLM. *)
let td_trace = { stagg_td with label = "Trace"; oracle = Oracle_trace }
let td_trace_llm = { stagg_td with label = "Trace+LLM"; oracle = Oracle_trace_llm }

(* Table 2: penalty ablations *)
let drop_penalty m (c : Penalty.criterion) =
  {
    m with
    label = Printf.sprintf "%s.Drop(%s)" m.label (Penalty.criterion_to_string c);
    penalties = List.filter (fun x -> x <> c) m.penalties;
  }

let drop_all_penalties m suffix = { m with label = m.label ^ ".Drop(" ^ suffix ^ ")"; penalties = [] }

(* Table 3: grammar ablations *)
let with_grammar m g suffix = { m with label = m.label ^ "." ^ suffix; grammar = g }

let td_equal_probability = with_grammar stagg_td Equal_probability "EqualProbability"
let td_llm_grammar = with_grammar stagg_td Llm_grammar "LLMGrammar"
let td_full_grammar = with_grammar stagg_td Full_grammar "FullGrammar"
let bu_equal_probability = with_grammar stagg_bu Equal_probability "EqualProbability"
let bu_llm_grammar = with_grammar stagg_bu Llm_grammar "LLMGrammar"
let bu_full_grammar = with_grammar stagg_bu Full_grammar "FullGrammar"

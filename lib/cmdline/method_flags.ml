open Cmdliner
module Method_ = Stagg.Method_

type t = { oracle : Method_.oracle option }

let oracle =
  Arg.(
    value
    & opt
        (enum
           [
             ("default", None);
             ("llm", Some Method_.Oracle_llm);
             ("trace", Some Method_.Oracle_trace);
             ("trace+llm", Some Method_.Oracle_trace_llm);
             ("trace-llm", Some Method_.Oracle_trace_llm);
           ])
        None
    & info [ "oracle" ] ~docv:"ORACLE"
        ~doc:
          "Candidate source: $(b,llm) (the paper's pipeline), $(b,trace) (templates extracted \
           from the kernel's own execution trace — no LLM in the loop), or $(b,trace+llm) \
           (union). $(b,default) keeps the method's own oracle (the $(b,trace)/$(b,trace+llm) \
           methods carry theirs; everything else is $(b,llm)). A run with an explicit \
           $(b,--oracle llm) is byte-identical to one without the flag.")

let term = Term.(const (fun oracle -> { oracle }) $ oracle)

let apply f (m : Method_.t) = { m with oracle = Option.value f.oracle ~default:m.oracle }

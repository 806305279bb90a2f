(* The benchmark's independent answer check.

   A solved lift is evaluated with the reference TACO interpreter
   ([Stagg_taco.Interp], not the validator's compiled engine) and
   compared cell by cell against the suite's hand-written ground truth
   ([Bench.truth]) on seeded random integer inputs. Serve variants rename
   the kernel's identifiers; their ground truth and inputs are renamed
   the same way before the comparison. *)

open Stagg_util
module Sig = Stagg_minic.Signature
module Tensor = Stagg_taco.Tensor
module Taco = Stagg_taco.Ast
module I = Stagg_taco.Interp.Make (Value.Rat_value)

(* One input set: the environment both programs run on, the output
   shape, and the ground truth's output. *)
type reference = {
  env : (string * Rat.t Tensor.t) list;
  lhs_shape : int array;
  expected : Rat.t Tensor.t;
}

(* Positive integers keep sums away from zero, so a division in the
   truth or in an answer rarely meets a zero divisor; a draw that does is
   retried. *)
let value prng = Rat.of_int (1 + Prng.int prng 4)

let env_of (sg : Sig.t) ~sizes prng =
  List.map
    (fun (name, spec) ->
      match spec with
      | Sig.Size s -> (name, Tensor.scalar (Rat.of_int (List.assoc s sizes)))
      | Sig.Scalar_data -> (name, Tensor.scalar (value prng))
      | Sig.Arr _ -> (name, Tensor.init (Sig.shape ~sizes spec) (fun _ -> value prng)))
    sg.Sig.args

let run env lhs_shape p = I.run ~env ~lhs_shape p

(* [references ~seed sg truth] draws two input sets for which the truth
   evaluates. Sizes are distinct per dimension name first (so a
   transposed answer shows); a truth that ties two dimension names to
   one index variable falls back to equal sizes. *)
let references ~seed (sg : Sig.t) truth =
  let prng = Prng.create ~seed in
  let names = Sig.size_names sg in
  let attempt sizes =
    let env = env_of sg ~sizes prng in
    let lhs_shape = Sig.shape ~sizes (Sig.out_spec sg) in
    match run env lhs_shape truth with
    | Ok expected -> Some { env; lhs_shape; expected }
    | Error _ -> None
  in
  let rec draw tries =
    if tries = 0 then None
    else
      let distinct = List.map (fun d -> (d, 2 + Prng.int prng 3)) names in
      match attempt distinct with
      | Some r -> Some r
      | None -> (
          match attempt (List.map (fun d -> (d, 3)) names) with
          | Some r -> Some r
          | None -> draw (tries - 1))
  in
  List.filter_map (fun _ -> draw 8) [ (); () ]

(* [agrees refs p] — [p] reproduces the truth on every input set. An
   empty reference list never agrees: an answer that cannot be checked
   does not count as right. *)
let agrees refs (p : Taco.program) =
  refs <> []
  && List.for_all
       (fun r ->
         match run r.env r.lhs_shape p with
         | Ok out -> Tensor.equal Rat.equal out r.expected
         | Error _ -> false)
       refs

(* ---- renaming, for the serve variants ---- *)

let rename_name map s = Option.value (List.assoc_opt s map) ~default:s

let rename_taco map (p : Taco.program) : Taco.program =
  let rec go = function
    | Taco.Access (t, ix) -> Taco.Access (rename_name map t, ix)
    | Taco.Const _ as c -> c
    | Taco.Neg e -> Taco.Neg (go e)
    | Taco.Bin (op, a, b) -> Taco.Bin (op, go a, go b)
  in
  let t, ix = p.lhs in
  { lhs = (rename_name map t, ix); rhs = go p.rhs }

let rename_signature map (sg : Sig.t) : Sig.t =
  let spec = function
    | Sig.Size s -> Sig.Size (rename_name map s)
    | Sig.Scalar_data -> Sig.Scalar_data
    | Sig.Arr ds -> Sig.Arr (List.map (rename_name map) ds)
  in
  {
    Sig.args = List.map (fun (n, s) -> (rename_name map n, spec s)) sg.args;
    out = rename_name map sg.out;
  }

(* Every identifier the kernel binds: its name, parameters and locals. *)
let bound_names (f : Stagg_minic.Ast.func) =
  let open Stagg_minic.Ast in
  let acc = ref (f.fname :: List.map (fun p -> p.pname) f.params) in
  let rec stmt = function
    | Decl (_, x, _) -> acc := x :: !acc
    | For (h, body) ->
        Option.iter stmt h.init;
        Option.iter stmt h.step;
        List.iter stmt body
    | If (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | Block b -> List.iter stmt b
    | Assign _ | Op_assign _ | Incr_stmt _ | Decr_stmt _ | Expr_stmt _ | Return _ -> ()
  in
  List.iter stmt f.body;
  List.sort_uniq String.compare !acc

(* A seeded injective renaming of every bound identifier. The fresh
   names carry a prefix no suite kernel uses, so they never capture. *)
let renaming ~nonce f =
  List.mapi (fun i x -> (x, Printf.sprintf "zq%x_%d" nonce i)) (bound_names f)

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Token-level rename of C source: whole identifiers only. *)
let rename_c map src =
  let n = String.length src in
  let buf = Buffer.create (n + 64) in
  let rec go i =
    if i < n then
      if is_ident_char src.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do
          incr j
        done;
        Buffer.add_string buf (rename_name map (String.sub src i (!j - i)));
        go !j
      end
      else begin
        Buffer.add_char buf src.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

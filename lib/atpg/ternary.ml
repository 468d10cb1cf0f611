open Reseed_netlist
open Reseed_fault

type v = F | T | X

let of_bool b = if b then T else F

let to_bool = function
  | F -> false
  | T -> true
  | X -> invalid_arg "Ternary.to_bool: X"

let known = function X -> false | F | T -> true

let v_not = function F -> T | T -> F | X -> X

type injection = { out : int; gate : int; pin : int; stuck : v }

let no_injection = { out = -1; gate = -1; pin = -1; stuck = X }

let injection { Fault.site; stuck } =
  let stuck = of_bool stuck in
  match site with
  | Fault.Out g -> { no_injection with out = g; stuck }
  | Fault.Pin { gate; pin } -> { no_injection with gate; pin; stuck }

(* Fanin [k] as the gate sees it: pin [pin] ([-1] = none) reads [forced]. *)
let arg fanins values pin forced k = if k = pin then forced else values.(fanins.(k))

(* The n-ary folds from fanin [k] on, with accumulator [acc].  AND: a 0
   decides, else any X gives X; OR dually; XOR: any X gives X, else the
   parity. *)
let rec and_from fanins values pin forced k acc =
  if k = Array.length fanins then acc
  else
    match arg fanins values pin forced k with
    | F -> F
    | T -> and_from fanins values pin forced (k + 1) acc
    | X -> and_from fanins values pin forced (k + 1) X

let rec or_from fanins values pin forced k acc =
  if k = Array.length fanins then acc
  else
    match arg fanins values pin forced k with
    | T -> T
    | F -> or_from fanins values pin forced (k + 1) acc
    | X -> or_from fanins values pin forced (k + 1) X

let rec xor_from fanins values pin forced k acc =
  if k = Array.length fanins then acc
  else
    match arg fanins values pin forced k with
    | X -> X
    | T -> xor_from fanins values pin forced (k + 1) (v_not acc)
    | F -> xor_from fanins values pin forced (k + 1) acc

(* One gate over the [values] entries of its [fanins]; allocates nothing. *)
let eval_gate kind fanins values pin forced =
  match kind with
  | Gate.Input -> invalid_arg "Ternary.eval: Input"
  | Gate.Buf -> arg fanins values pin forced 0
  | Gate.Not -> v_not (arg fanins values pin forced 0)
  | Gate.And -> and_from fanins values pin forced 0 T
  | Gate.Nand -> v_not (and_from fanins values pin forced 0 T)
  | Gate.Or -> or_from fanins values pin forced 0 F
  | Gate.Nor -> v_not (or_from fanins values pin forced 0 F)
  | Gate.Xor -> xor_from fanins values pin forced 0 F
  | Gate.Xnor -> v_not (xor_from fanins values pin forced 0 F)
  | Gate.Const0 -> F
  | Gate.Const1 -> T

let eval kind args = eval_gate kind (Array.init (Array.length args) Fun.id) args (-1) X

let eval_node c inj values i =
  (* An Out fault pins the node whatever its kind. *)
  if i = inj.out then inj.stuck
  else
    let node = c.Circuit.nodes.(i) in
    match node.Circuit.kind with
    | Gate.Input -> values.(i)
    | kind ->
        let pin = if i = inj.gate then inj.pin else -1 in
        eval_gate kind node.Circuit.fanins values pin inj.stuck

let simulate c pi_values ?fault () =
  if Array.length pi_values <> Circuit.input_count c then
    invalid_arg "Ternary.simulate: PI assignment width mismatch";
  let inj = match fault with Some f -> injection f | None -> no_injection in
  let n = Circuit.node_count c in
  let values = Array.make n X in
  let pi = ref 0 in
  for i = 0 to n - 1 do
    if c.Circuit.nodes.(i).Circuit.kind = Gate.Input then begin
      values.(i) <- pi_values.(!pi);
      incr pi
    end;
    values.(i) <- eval_node c inj values i
  done;
  values

let error ~good ~faulty i =
  known good.(i) && known faulty.(i) && good.(i) <> faulty.(i)

let to_char = function F -> '0' | T -> '1' | X -> 'x'

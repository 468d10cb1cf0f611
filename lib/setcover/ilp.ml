open Reseed_util

type stop_reason = Complete | Node_limit | Budget of Budget.stop_reason

let stop_reason_name = function
  | Complete -> "complete"
  | Node_limit -> "node-limit"
  | Budget r -> Budget.stop_reason_name r

type result = {
  selected : int list;
  cost : float;
  optimal : bool;
  nodes_explored : int;
  stop_reason : stop_reason;
  uncovered : int list;
}

let epsilon = 1e-9

let m_nodes = Metrics.counter ~help:"ILP branch-and-bound nodes" "nodes_explored"

let m_incumbents =
  Metrics.counter ~help:"ILP incumbent improvements" "ilp_incumbent_updates"

let m_prunes =
  Metrics.counter ~help:"ILP subtrees cut by the lower bound" "ilp_bound_prunes"

let m_root_proofs =
  Metrics.counter ~help:"ILP solves closed at the root by the Lagrangian bound"
    "ilp_root_proofs"

(* Wall-clock polls are throttled to once per [budget_stride] nodes: a
   search node costs well under a microsecond, so the deadline is honoured
   within a few milliseconds without a clock read per node. *)
let budget_stride = 4096

let check_weights n_rows w =
  if Array.length w <> n_rows then invalid_arg "Ilp.solve: weight count mismatch";
  Array.iter (fun x -> if x <= 0. then invalid_arg "Ilp.solve: weights must be > 0") w

(* Weighted independent-column bound: columns whose covering-row sets
   are pairwise disjoint need pairwise distinct rows, so the cheapest
   row of each is a valid additive lower bound. *)
let independent_bound m weights =
  let n_rows = Matrix.rows m in
  let min_weight_of_col j =
    Bitvec.fold_ones
      (fun acc i -> Float.min acc weights.(i))
      Float.infinity (Matrix.col m j)
  in
  fun need ->
    let used = Bitvec.create n_rows in
    let lb = ref 0. in
    Bitvec.iter_ones
      (fun j ->
        let cover = Matrix.col m j in
        if not (Bitvec.intersects cover used) then begin
          Bitvec.union_into ~into:used cover;
          lb := !lb +. min_weight_of_col j
        end)
      need;
    !lb

(* ------------------------------------------------------------------ *)
(* Resumable depth-first branch-and-bound.

   The search keeps an explicit stack of pending subproblems instead of
   recursing, so it can stop after a node quantum and resume later with
   the frontier intact — the suspension point the racing portfolio needs.
   A stack frame records the parent's residual need plus the row the
   child subtracts; the child's vector is materialised only when the
   frame is popped, which keeps memory at the recursion's level (one
   live vector per tree level plus the frontier's parent references).

   The pop-order reproduces the historical recursive traversal exactly:
   candidates are pushed in reverse, so the cheapest-first candidate
   order is also the exploration order, and [nodes] counts one increment
   per popped frame — the recursive version's increment-on-entry. *)

type frame = {
  f_need : Bitvec.t; (* parent's residual columns (shared, read-only) *)
  f_sub : int; (* row the child picks, -1 for the root frame *)
  f_chosen : int list; (* parent's picks *)
  f_cost : float; (* parent's cost *)
}

type search = {
  s_matrix : Matrix.t;
  s_weights : float array;
  s_bound : Bitvec.t -> float;
  s_node_limit : int;
  mutable s_stack : frame list;
  mutable s_best : int list;
  mutable s_cost : float;
  mutable s_nodes : int;
  mutable s_incumbents : int;
  mutable s_prunes : int;
  mutable s_stop : stop_reason option;
}

(* Lagrangian iterations scale down on huge instances: the bound is
   O(iters × nnz) at the root and the xl end-game should spend its time
   branching, not polishing multipliers. *)
let lagrangian_iters m = if Matrix.ones m > 2_000_000 then 8 else 25

let hybrid_bound m weights ~ub =
  let lag = Lagrangian.optimize ~iters:(lagrangian_iters m) ~ub ~weights m in
  let indep = independent_bound m weights in
  (lag, fun need -> Float.max (indep need) (Lagrangian.node_bound lag need))

let seed_of ?weights m =
  (* The incumbent must optimise the same objective as the search: a
     cardinality-greedy seed on a weighted instance both starts the
     search from the wrong cover and reports the wrong cost when a
     budget expires before any improvement. *)
  let rows = Greedy.solve_weighted ?weights m in
  (rows, Greedy.cost ?weights rows)

let start ?weights ?(node_limit = 2_000_000) ?bound ?seed m =
  let n_rows = Matrix.rows m in
  let w =
    match weights with
    | None -> Array.make n_rows 1.0
    | Some w ->
        check_weights n_rows w;
        w
  in
  let seed_rows, seed_cost =
    match seed with Some s -> s | None -> seed_of ?weights m
  in
  let bound =
    match bound with Some b -> b | None -> snd (hybrid_bound m w ~ub:seed_cost)
  in
  let root_need = Bitvec.copy (Matrix.universe m) in
  {
    s_matrix = m;
    s_weights = w;
    s_bound = bound;
    s_node_limit = node_limit;
    s_stack = [ { f_need = root_need; f_sub = -1; f_chosen = []; f_cost = 0. } ];
    s_best = seed_rows;
    s_cost = seed_cost;
    s_nodes = 0;
    s_incumbents = 0;
    s_prunes = 0;
    s_stop = None;
  }

let inject s ~rows ~cost =
  if cost < s.s_cost -. epsilon then begin
    s.s_cost <- cost;
    s.s_best <- rows
  end

let best s = (List.sort compare s.s_best, s.s_cost)
let nodes_explored s = s.s_nodes
let incumbent_updates s = s.s_incumbents
let prunes s = s.s_prunes
let search_stop s = s.s_stop
let exhausted s = s.s_stack = [] && s.s_stop = None

let advance ?(quantum = max_int) ?budget s =
  let m = s.s_matrix and weights = s.s_weights in
  let deadline_nodes =
    if quantum > max_int - s.s_nodes then max_int else s.s_nodes + quantum
  in
  let note_budget () =
    if s.s_stop = None then
      match budget with
      | Some b when s.s_nodes mod budget_stride = 0 && Budget.expired b -> (
          match Budget.stop_reason b with
          | Some r -> s.s_stop <- Some (Budget r)
          | None -> ())
      | _ -> ()
  in
  while s.s_stop = None && s.s_stack <> [] && s.s_nodes < deadline_nodes do
    match s.s_stack with
    | [] -> ()
    | fr :: rest ->
        s.s_stack <- rest;
        s.s_nodes <- s.s_nodes + 1;
        note_budget ();
        if s.s_nodes > s.s_node_limit then s.s_stop <- Some Node_limit
        else if s.s_stop <> None then ()
        else begin
          let need, chosen, cost =
            if fr.f_sub < 0 then (fr.f_need, fr.f_chosen, fr.f_cost)
            else begin
              let need = Bitvec.copy fr.f_need in
              Bitvec.diff_into ~into:need (Matrix.row m fr.f_sub);
              (need, fr.f_sub :: fr.f_chosen, fr.f_cost +. weights.(fr.f_sub))
            end
          in
          if Bitvec.is_empty need then begin
            if cost < s.s_cost -. epsilon then begin
              s.s_incumbents <- s.s_incumbents + 1;
              s.s_cost <- cost;
              s.s_best <- chosen
            end
          end
          else if cost +. s.s_bound need >= s.s_cost -. epsilon then
            s.s_prunes <- s.s_prunes + 1
          else begin
            (* Branch on the hardest column: fewest covering rows. *)
            let pick = ref (-1) and pick_count = ref max_int in
            Bitvec.iter_ones
              (fun j ->
                let cnt = Bitvec.count (Matrix.col m j) in
                if cnt < !pick_count then begin
                  pick := j;
                  pick_count := cnt
                end)
              need;
            let candidates =
              List.sort
                (fun a b ->
                  (* Cheapest first; larger marginal coverage breaks ties. *)
                  let c = Float.compare weights.(a) weights.(b) in
                  if c <> 0 then c
                  else
                    Stdlib.compare
                      (Bitvec.count_inter (Matrix.row m b) need)
                      (Bitvec.count_inter (Matrix.row m a) need))
                (Bitvec.to_list (Matrix.col m !pick))
            in
            (* Reverse push: the cheapest candidate is the next pop. *)
            List.iter
              (fun i ->
                s.s_stack <-
                  { f_need = need; f_sub = i; f_chosen = chosen; f_cost = cost }
                  :: s.s_stack)
              (List.rev candidates)
          end
        end
  done

(* ------------------------------------------------------------------ *)

let solve ?weights ?(node_limit = 2_000_000) ?budget m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  Trace.with_span "ilp.solve"
    ~args:[ ("rows", string_of_int n_rows); ("cols", string_of_int n_cols) ]
  @@ fun () ->
  Option.iter (check_weights n_rows) weights;
  let w = match weights with None -> Array.make n_rows 1.0 | Some w -> w in
  (* Columns no row covers are unreachable for any selection.  Solve the
     coverable sub-instance and report the dead columns instead of
     raising: on an unreduced matrix with undetectable faults the exact
     method then degrades exactly like {!Greedy.solve}, which has always
     skipped them. *)
  let uncovered = Matrix.uncoverable m in
  (* Incumbent: greedy upper bound — also the anytime fallback returned
     when the node or wall-clock budget expires before the search ends. *)
  let seed_rows, seed_cost = seed_of ?weights m in
  (* A budget that expired before the search even starts (e.g. the matrix
     build consumed the whole allowance) returns the greedy incumbent
     immediately. *)
  let already_expired =
    match budget with
    | Some b when Budget.expired b -> Budget.stop_reason b
    | _ -> None
  in
  match already_expired with
  | Some r ->
      {
        selected = List.sort compare seed_rows;
        cost = seed_cost;
        optimal = false;
        nodes_explored = 0;
        stop_reason = Budget r;
        uncovered;
      }
  | None ->
      let lag, bound = hybrid_bound m w ~ub:seed_cost in
      if lag.Lagrangian.lb >= seed_cost -. epsilon then begin
        (* The dual bound already meets the greedy seed: optimal without
           opening a single node — the Lagrangian version of the paper's
           "the reduction solved it" fast path. *)
        Metrics.incr m_root_proofs;
        {
          selected = List.sort compare seed_rows;
          cost = seed_cost;
          optimal = true;
          nodes_explored = 0;
          stop_reason = Complete;
          uncovered;
        }
      end
      else begin
        let s =
          start ?weights ~node_limit ~bound ~seed:(seed_rows, seed_cost) m
        in
        advance ?budget s;
        Metrics.add m_nodes s.s_nodes;
        Metrics.add m_incumbents s.s_incumbents;
        Metrics.add m_prunes s.s_prunes;
        let selected, cost = best s in
        {
          selected;
          cost;
          optimal = s.s_stop = None;
          nodes_explored = s.s_nodes;
          stop_reason = (match s.s_stop with None -> Complete | Some r -> r);
          uncovered;
        }
      end

open Reseed_netlist
open Reseed_fault
open Reseed_util

type outcome = Test of bool array | Untestable | Aborted

type stats = { mutable backtracks : int; mutable decisions : int }

let new_stats () = { backtracks = 0; decisions = 0 }

type status = Detected | Possible | Blocked

(* Some node listed in [idx] from position [k] on carries a fault effect. *)
let rec some_error good faulty idx k =
  k < Array.length idx
  && (Ternary.error ~good ~faulty idx.(k) || some_error good faulty idx (k + 1))

(* Some node listed in [idx] from position [k] on is marked in [marks]. *)
let rec some_marked marks idx k =
  k < Array.length idx && (Bytes.get marks idx.(k) <> '\000' || some_marked marks idx (k + 1))

let generate c fault ~rng ?(max_backtracks = 2000) ?budget ?testability ?stats () =
  Trace.with_span "podem.generate" @@ fun () ->
  let stats = match stats with Some s -> s | None -> new_stats () in
  let tb = match testability with Some t -> t | None -> Testability.compute c in
  let co = Testability.(tb.co) in
  let n = Circuit.node_count c in
  let nodes = c.Circuit.nodes and fanouts = c.Circuit.fanouts in
  let level = c.Circuit.level and inputs = c.Circuit.inputs in
  let n_pi = Array.length inputs in
  let pi_vals = Array.make n_pi Ternary.X in
  let pi_pos = Array.make n (-1) in
  Array.iteri (fun pos node -> pi_pos.(node) <- pos) inputs;
  (* The stem whose *good* value must differ from the stuck value for the
     fault to be excited, and the faulted gate of a branch fault (-1 for
     a stem fault). *)
  let site_ref, fault_gate =
    match fault.Fault.site with
    | Fault.Out g -> (g, -1)
    | Fault.Pin { gate; pin } -> (nodes.(gate).Circuit.fanins.(pin), gate)
  in
  let activation : Ternary.v = Ternary.of_bool (not fault.Fault.stuck) in
  let is_po = Array.make n false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;

  (* The two machines, kept equal to a full simulation of [pi_vals] by
     [imply] after every PI change. *)
  let inj = Ternary.injection fault in
  let good = Ternary.simulate c pi_vals () in
  let faulty = Ternary.simulate c pi_vals ~fault () in

  (* Level-bucket event queue, the scheme of [Fault_sim]: a gate's fanins
     sit at lower levels, so popping the lowest pending level evaluates
     every node after all its fanins are final. *)
  let level_off = Array.make (Circuit.max_level c + 2) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) level;
  for l = 1 to Array.length level_off - 1 do
    level_off.(l) <- level_off.(l) + level_off.(l - 1)
  done;
  let level_cnt = Array.make (Array.length level_off) 0 in
  let queue = Array.make n 0 and queued = Bytes.make n '\000' in
  let pending = ref 0 in
  let push i =
    if Bytes.get queued i = '\000' then begin
      Bytes.set queued i '\001';
      let l = level.(i) in
      let k = level_cnt.(l) in
      queue.(level_off.(l) + k) <- i;
      level_cnt.(l) <- k + 1;
      incr pending
    end
  in
  let push_fanouts i =
    let fo = fanouts.(i) in
    for k = 0 to Array.length fo - 1 do
      push fo.(k)
    done
  in
  let set_pi pos v =
    pi_vals.(pos) <- v;
    let node = inputs.(pos) in
    good.(node) <- v;
    faulty.(node) <- v;
    (* An input keeps its assignment unless the fault pins it. *)
    faulty.(node) <- Ternary.eval_node c inj faulty node;
    push_fanouts node
  in
  (* Re-evaluate both machines over the queued nodes, pushing fanouts only
     where a value changed.  Every node value is a function of the PI
     assignment alone, so the result equals a full re-simulation. *)
  let imply () =
    let lo = ref 0 in
    while !pending > 0 do
      while level_cnt.(!lo) = 0 do
        incr lo
      done;
      let k = level_cnt.(!lo) - 1 in
      level_cnt.(!lo) <- k;
      decr pending;
      let i = queue.(level_off.(!lo) + k) in
      Bytes.set queued i '\000';
      let g = Ternary.eval_node c Ternary.no_injection good i in
      let f = Ternary.eval_node c inj faulty i in
      if g <> good.(i) || f <> faulty.(i) then begin
        good.(i) <- g;
        faulty.(i) <- f;
        push_fanouts i
      end
    done
  in

  (* xpath: node [i] is unresolved and an unresolved path leads from it to
     a primary output — the classical X-path check.  One reverse sweep
     over the topological order. *)
  let xpath = Bytes.make n '\000' in
  let update_xpath () =
    for i = n - 1 downto 0 do
      let open_path =
        (good.(i) = Ternary.X || faulty.(i) = Ternary.X)
        && (is_po.(i) || some_marked xpath fanouts.(i) 0)
      in
      Bytes.set xpath i (if open_path then '\001' else '\000')
    done
  in
  let on_xpath i = Bytes.get xpath i <> '\000' in
  (* A frontier gate: on an X-path and fed by an errored fanin (or the
     faulted gate itself, for a branch fault). *)
  let frontier i =
    on_xpath i && (some_error good faulty nodes.(i).Circuit.fanins 0 || i = fault_gate)
  in

  let assess () =
    if some_error good faulty c.Circuit.outputs 0 then Detected
    else if good.(site_ref) = Ternary.X then
      (* Not excited yet: the site itself must still be able to show. *)
      if on_xpath site_ref || faulty.(site_ref) = Ternary.X || fault_gate >= 0 then
        Possible
      else Blocked
    else if good.(site_ref) <> activation then Blocked
    else begin
      (* Excited: the fault effect must still be able to reach a PO. *)
      let i = ref 0 in
      while !i < n && not (frontier !i) do
        incr i
      done;
      if !i < n then Possible else Blocked
    end
  in

  (* Find a frontier gate and derive an objective ([obj_node] gets good
     value [obj_value]) from it; [false] means no workable objective —
     fall back to an arbitrary unassigned PI to keep the search
     complete. *)
  let obj_node = ref (-1) and obj_value = ref false in
  let objective () =
    if good.(site_ref) = Ternary.X then begin
      obj_node := site_ref;
      obj_value := activation = Ternary.T;
      true
    end
    else begin
      (* Among frontier gates, prefer the most observable output; within
         it, the easiest-to-set X side-input. *)
      obj_node := -1;
      let best_co = ref max_int in
      for i = 0 to n - 1 do
        if on_xpath i && co.(i) < !best_co && frontier i then begin
          let node = nodes.(i) in
          let desired =
            match Gate.controlling_value node.Circuit.kind with
            | Some ctrl -> not ctrl
            | None -> true
          in
          let fanins = node.Circuit.fanins in
          let pick = ref (-1) and pick_cost = ref max_int in
          for k = 0 to Array.length fanins - 1 do
            let f = fanins.(k) in
            if good.(f) = Ternary.X then begin
              let cost = Testability.cost_to_set tb f desired in
              if cost < !pick_cost then begin
                pick := f;
                pick_cost := cost
              end
            end
          done;
          if !pick >= 0 then begin
            obj_node := !pick;
            obj_value := desired;
            best_co := co.(i)
          end
        end
      done;
      !obj_node >= 0
    end
  in

  (* Map an objective to a PI by walking back through X-valued nodes of
     the good machine; returns the PI position, with the value to assign
     in [pi_value]. *)
  let pi_value = ref false in
  let rec backtrace node desired =
    let n = nodes.(node) in
    match n.Circuit.kind with
    | Gate.Input ->
        pi_value := desired;
        pi_pos.(node)
    | Gate.Buf -> backtrace n.Circuit.fanins.(0) desired
    | Gate.Not -> backtrace n.Circuit.fanins.(0) (not desired)
    | Gate.Const0 | Gate.Const1 -> assert false (* constants are never X *)
    | kind ->
        let want = if Gate.inversion kind then not desired else desired in
        let fanins = n.Circuit.fanins in
        (* Controlling objective (one input suffices): take the easiest X
           input.  Non-controlling (all inputs needed): take the hardest
           first, so infeasibility surfaces early. *)
        let easiest =
          match Gate.controlling_value kind with
          | Some ctrl -> want = ctrl
          | None -> true
        in
        let x_fanin = ref (-1) and x_cost = ref 0 in
        for k = 0 to Array.length fanins - 1 do
          let f = fanins.(k) in
          if good.(f) = Ternary.X then begin
            let cost = Testability.cost_to_set tb f want in
            if
              !x_fanin < 0
              || (easiest && cost < !x_cost)
              || ((not easiest) && cost > !x_cost)
            then begin
              x_fanin := f;
              x_cost := cost
            end
          end
        done;
        (* An X gate output always has at least one X fanin. *)
        assert (!x_fanin >= 0);
        backtrace !x_fanin want
  in

  (* The decision trail as a stack: the PI of each decision and whether
     its complementary value has been tried.  Every decision assigns an
     unassigned PI, so the depth never exceeds the PI count. *)
  let trail_pi = Array.make n_pi 0 and alt_tried = Bytes.make n_pi '\000' in
  let depth = ref 0 in
  let decide pos value =
    stats.decisions <- stats.decisions + 1;
    trail_pi.(!depth) <- pos;
    Bytes.set alt_tried !depth '\000';
    incr depth;
    set_pi pos (Ternary.of_bool value)
  in
  (* Undo decisions until one can be flipped; [false] when exhausted. *)
  let rec backtrack () =
    if !depth = 0 then false
    else begin
      let d = !depth - 1 in
      let pos = trail_pi.(d) in
      if Bytes.get alt_tried d <> '\000' then begin
        set_pi pos Ternary.X;
        depth := d;
        backtrack ()
      end
      else begin
        Bytes.set alt_tried d '\001';
        set_pi pos (Ternary.v_not pi_vals.(pos));
        true
      end
    end
  in

  (* Fill don't-cares randomly: collateral coverage helps the caller. *)
  let extract_test () =
    Array.map
      (function
        | Ternary.T -> true
        | Ternary.F -> false
        | Ternary.X -> Rng.bool rng)
      pi_vals
  in

  let result = ref Aborted and searching = ref true in
  let conclude r =
    result := r;
    searching := false
  in
  let blocked () =
    stats.backtracks <- stats.backtracks + 1;
    if not (backtrack ()) then conclude Untestable
  in
  (* The decision loop is PODEM's hot loop: an expired budget aborts the
     fault like a blown backtrack limit — the caller records it as such. *)
  while !searching do
    if stats.backtracks > max_backtracks || Budget.check budget then conclude Aborted
    else begin
      imply ();
      update_xpath ();
      match assess () with
      | Detected -> conclude (Test (extract_test ()))
      | Blocked -> blocked ()
      | Possible ->
          if objective () then begin
            let pos = backtrace !obj_node !obj_value in
            decide pos !pi_value
          end
          else begin
            (* No frontier objective reachable through good-machine Xs:
               decide any unassigned PI to keep completeness. *)
            let free = ref 0 in
            while !free < n_pi && pi_vals.(!free) <> Ternary.X do
              incr free
            done;
            if !free = n_pi then blocked () else decide !free true
          end
    end
  done;
  !result

open Reseed_netlist
open Reseed_fault
open Reseed_util

let check = Alcotest.(check bool)

let engines = [ Fault_sim.Event; Fault_sim.Cpt; Fault_sim.Hybrid ]

(* Build one simulator per engine over the same fault list. *)
let sims_for c =
  let faults = Fault.all c in
  List.map (fun e -> Fault_sim.create ~engine:e c faults) engines

let check_identical_maps c patterns =
  match sims_for c with
  | [] | [ _ ] -> assert false
  | ref_sim :: rest ->
      let ref_map = Fault_sim.detection_map ref_sim patterns in
      List.iter
        (fun sim ->
          let map = Fault_sim.detection_map sim patterns in
          Array.iteri
            (fun fi row ->
              if not (Bitvec.equal row ref_map.(fi)) then
                Alcotest.failf "%s/%s: fault %d detection word differs from event"
                  (Circuit.name c)
                  (Fault_sim.engine_name (Fault_sim.engine sim))
                  fi)
            map)
        rest

(* Random generated circuits crossed with random pattern blocks, including
   a block count that leaves the final word partially filled. *)
let test_random_circuits () =
  let rng = Rng.create 777 in
  List.iter
    (fun (seed, n_patterns) ->
      let spec =
        {
          (Generator.default_spec "cpt" ~inputs:8 ~outputs:3 ~gates:70) with
          Generator.seed = seed;
        }
      in
      let c = Generator.generate spec in
      let patterns =
        Array.init n_patterns (fun _ -> Array.init 8 (fun _ -> Rng.bool rng))
      in
      check_identical_maps c patterns)
    [ (1, 100); (2, 62); (3, 63); (4, 7); (5, 125) ]

let test_structured_circuits () =
  let rng = Rng.create 778 in
  List.iter
    (fun c ->
      let n = Circuit.input_count c in
      let patterns = Array.init 90 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      check_identical_maps c patterns)
    [
      Library.c17 ();
      Library.ripple_adder 4;
      Library.comparator 4;
      Library.mux_tree 3;
      Library.alu 2;
    ]

(* detected_set with a sparse active mask must agree across engines (thin
   live sets leave most stems' observability uncomputed by the lazy
   kernel). *)
let test_detected_set_partial_active () =
  let rng = Rng.create 779 in
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let nf = Array.length faults in
  let n = Circuit.input_count c in
  let patterns = Array.init 80 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  List.iter
    (fun keep_one_in ->
      let active = Bitvec.create nf in
      for fi = 0 to nf - 1 do
        if fi mod keep_one_in = 0 then Bitvec.set active fi
      done;
      match
        List.map
          (fun e ->
            let sim = Fault_sim.create ~engine:e c faults in
            Fault_sim.detected_set sim patterns ~active)
          engines
      with
      | [ ev; cpt; hy ] ->
          check "cpt = event (partial active)" true (Bitvec.equal cpt ev);
          check "hybrid = event (partial active)" true (Bitvec.equal hy ev)
      | _ -> assert false)
    [ 1; 3; 17 ]

(* Fault dropping: the first-detecting pattern index per fault must be
   engine-independent. *)
let test_first_detections_identical () =
  let rng = Rng.create 780 in
  List.iter
    (fun name ->
      let c = Library.load name in
      let n = Circuit.input_count c in
      let patterns = Array.init 70 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      match List.map (fun sim -> Fault_sim.first_detections sim patterns) (sims_for c) with
      | [ ev; cpt; hy ] ->
          Alcotest.(check (array (option int))) (name ^ " cpt firsts") ev cpt;
          Alcotest.(check (array (option int))) (name ^ " hybrid firsts") ev hy
      | _ -> assert false)
    [ "c17"; "s420" ]

(* The optimisation claim itself: on a reconvergent benchmark the CPT
   engines must launch fewer event propagations than the event engine. *)
let test_props_reduction () =
  let rng = Rng.create 781 in
  let c = Library.load "c432" in
  let n = Circuit.input_count c in
  let patterns = Array.init 124 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  match sims_for c with
  | [ ev_sim; cpt_sim; hy_sim ] ->
      List.iter (fun sim -> ignore (Fault_sim.detection_map sim patterns))
        [ ev_sim; cpt_sim; hy_sim ];
      let ev = Fault_sim.event_propagations ev_sim in
      let cpt = Fault_sim.event_propagations cpt_sim in
      let hy = Fault_sim.event_propagations hy_sim in
      if not (2 * cpt <= ev) then
        Alcotest.failf "cpt props %d not >=2x below event props %d" cpt ev;
      if not (2 * hy <= ev) then
        Alcotest.failf "hybrid props %d not >=2x below event props %d" hy ev
  | _ -> assert false

(* Every engine's [first_detections] and [detected_set] under [model],
   with [keep_one_in] thinning the active mask, must equal the event
   oracle's. *)
let check_sweeps_identical ?(model = Fault_model.Stuck_at) c patterns keep_one_in =
  let faults = Fault_model.faults model c in
  let nf = Array.length faults in
  let active = Bitvec.create nf in
  for fi = 0 to nf - 1 do
    if fi mod keep_one_in = 0 then Bitvec.set active fi
  done;
  let sweep e =
    let sim = Fault_sim.create ~engine:e ~model c faults in
    let firsts = Fault_sim.first_detections sim ~active patterns in
    (firsts, Fault_sim.detected_set sim patterns ~active, Fault_sim.sims_performed sim)
  in
  let ev_firsts, ev_set, ev_sims = sweep Fault_sim.Event in
  List.iter
    (fun e ->
      let firsts, set, sims = sweep e in
      let what =
        Printf.sprintf "%s/%s 1-in-%d" (Circuit.name c) (Fault_sim.engine_name e)
          keep_one_in
      in
      Alcotest.(check (array (option int))) (what ^ " firsts") ev_firsts firsts;
      check (what ^ " detected set") true (Bitvec.equal set ev_set);
      Alcotest.(check int) (what ^ " fault sims") ev_sims sims)
    [ Fault_sim.Cpt; Fault_sim.Hybrid ]

(* Transition faults over a 200-pattern sequence (four blocks): the launch
   value of each block's lane 0 carries over from the previous block and
   lane 0 of the first block is masked out, whichever engine grades the
   capture cycle. *)
let test_transition_sequences () =
  let rng = Rng.create 782 in
  let c = Library.load "c432" in
  let n = Circuit.input_count c in
  let patterns = Array.init 200 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  List.iter
    (check_sweeps_identical ~model:Fault_model.Transition_delay c patterns)
    [ 1; 3; 17 ]

(* A scaled sequential benchmark: its replicated cones reconverge far
   from their stems, so flip propagations hand off at gates inside a
   fanout-free region as well as at stems. *)
let test_scaled_circuit () =
  let rng = Rng.create 783 in
  let c = Library.load "s953_x2" in
  let n = Circuit.input_count c in
  let patterns = Array.init 150 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  List.iter (check_sweeps_identical c patterns) [ 1; 5 ]

(* Allocation guard: a sweep's minor-heap allocation must grow with its
   faults and its blocks, never with the gate evaluations inside the
   propagation kernel.  Per fault the sweep allocates at most its result:
   a detection-map row (a record and a word array of [patterns / 63 + 1]
   words, with headers 8 words at these pattern counts) or a [Some] cell.
   Per block it allocates the pattern slice, the packed block and the
   good-machine value array, plus a fold closure per gate in the good
   simulator: at most [8 * nodes + 256] words.  4096 words cover the
   sweep's span, metrics and closures.  A kernel that allocated a closure
   per gate evaluation or per fanout push (tens of evaluations per fault
   and block here) overshoots this bound many times over. *)
let test_allocation_guard () =
  let rng = Rng.create 784 in
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let n = Circuit.input_count c in
  let patterns = Array.init 186 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let blocks = (Array.length patterns + 61) / 62 in
  let bound =
    (8 * Array.length faults)
    + (blocks * ((8 * Circuit.node_count c) + 256))
    + 4096
  in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    int_of_float (Gc.minor_words () -. before)
  in
  List.iter
    (fun e ->
      let sim = Fault_sim.create ~engine:e c faults in
      let map = words (fun () -> Fault_sim.detection_map sim patterns) in
      let firsts = words (fun () -> Fault_sim.first_detections sim patterns) in
      List.iter
        (fun (sweep, w) ->
          if w > bound then
            Alcotest.failf "%s %s allocated %d words, bound %d"
              (Fault_sim.engine_name e) sweep w bound)
        [ ("detection_map", map); ("first_detections", firsts) ])
    [ Fault_sim.Cpt; Fault_sim.Hybrid ]

let suite =
  [
    ( "cpt-differential",
      [
        Alcotest.test_case "random circuits x blocks" `Quick test_random_circuits;
        Alcotest.test_case "structured circuits" `Quick test_structured_circuits;
        Alcotest.test_case "partial active masks" `Quick test_detected_set_partial_active;
        Alcotest.test_case "first detections" `Quick test_first_detections_identical;
        Alcotest.test_case "propagation reduction" `Quick test_props_reduction;
        Alcotest.test_case "transition sequences" `Quick test_transition_sequences;
        Alcotest.test_case "scaled circuit" `Quick test_scaled_circuit;
        Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
      ] );
  ]

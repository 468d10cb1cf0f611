open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let check = Alcotest.(check bool)

(* A PODEM-produced test must actually detect the fault (checked through
   the independent fault simulator). *)
let validates_fault c fault pattern =
  let sim = Fault_sim.create c [| fault |] in
  let active = Bitvec.create 1 in
  Bitvec.fill_all active;
  let det = Fault_sim.detected_set sim [| pattern |] ~active in
  Bitvec.get det 0

let test_all_c17_faults () =
  let c = Library.c17 () in
  let rng = Rng.create 1 in
  Array.iter
    (fun fault ->
      match Podem.generate c fault ~rng () with
      | Podem.Test pattern ->
          if not (validates_fault c fault pattern) then
            Alcotest.failf "bogus test for %s" (Fault.to_string c fault)
      | Podem.Untestable ->
          Alcotest.failf "%s wrongly declared untestable" (Fault.to_string c fault)
      | Podem.Aborted -> Alcotest.failf "aborted on c17")
    (Fault.all c)

let test_structured_circuits () =
  let rng = Rng.create 2 in
  List.iter
    (fun c ->
      Array.iter
        (fun fault ->
          match Podem.generate c fault ~rng () with
          | Podem.Test pattern ->
              if not (validates_fault c fault pattern) then
                Alcotest.failf "%s: bogus test for %s" (Circuit.name c)
                  (Fault.to_string c fault)
          | Podem.Untestable | Podem.Aborted -> ())
        (Fault.all c))
    [ Library.ripple_adder 4; Library.parity 8; Library.mux_tree 3 ]

let test_redundant_fault_proven () =
  (* y = OR(x, NOT x) is constantly 1: its s-a-1 fault is undetectable. *)
  let b = Circuit.Builder.create "red" in
  let x = Circuit.Builder.add_input b "x" in
  let nx = Circuit.Builder.add_gate b Gate.Not [ x ] "nx" in
  let y = Circuit.Builder.add_gate b Gate.Or [ x; nx ] "y" in
  Circuit.Builder.mark_output b y;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "y"); stuck = true } in
  let rng = Rng.create 3 in
  check "redundancy proven" true (Podem.generate c fault ~rng () = Podem.Untestable)

let test_masked_internal_fault () =
  (* g = AND(x, y); h = AND(g, NOT y) is constant 0: h s-a-0 redundant. *)
  let b = Circuit.Builder.create "mask" in
  let x = Circuit.Builder.add_input b "x" in
  let y = Circuit.Builder.add_input b "y" in
  let g = Circuit.Builder.add_gate b Gate.And [ x; y ] "g" in
  let ny = Circuit.Builder.add_gate b Gate.Not [ y ] "ny" in
  let h = Circuit.Builder.add_gate b Gate.And [ g; ny ] "h" in
  Circuit.Builder.mark_output b h;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "h"); stuck = false } in
  let rng = Rng.create 4 in
  check "masked fault proven untestable" true
    (Podem.generate c fault ~rng () = Podem.Untestable)

let test_wide_and_needs_coincidence () =
  (* Deterministic generation succeeds where random detection is ~2^-16. *)
  let w = 16 in
  let b = Circuit.Builder.create "wide" in
  let ins = List.init w (fun i -> Circuit.Builder.add_input b (Printf.sprintf "x%d" i)) in
  let g = Circuit.Builder.add_gate b Gate.And ins "g" in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finalize b in
  let fault = { Fault.site = Fault.Out (Circuit.find c "g"); stuck = false } in
  let rng = Rng.create 5 in
  match Podem.generate c fault ~rng () with
  | Podem.Test pattern ->
      check "all inputs one" true (Array.for_all Fun.id pattern);
      check "valid" true (validates_fault c fault pattern)
  | _ -> Alcotest.fail "failed on wide AND"

let test_stats_accumulate () =
  let c = Library.c17 () in
  let rng = Rng.create 6 in
  let stats = Podem.new_stats () in
  Array.iter
    (fun fault -> ignore (Podem.generate c fault ~rng ~stats ()))
    (Fault.all c);
  check "decisions counted" true (stats.Podem.decisions > 0)

let test_abort_budget () =
  (* With a zero budget every non-trivial fault aborts. *)
  let c = Library.ripple_adder 8 in
  let rng = Rng.create 7 in
  let outcomes =
    Array.map
      (fun fault -> Podem.generate c fault ~rng ~max_backtracks:(-1) ())
      (Fault.all c)
  in
  check "all aborted at negative budget" true
    (Array.for_all (fun o -> o = Podem.Aborted) outcomes)

(* Golden digests of the collapsed-fault ATPG flow at seed 42: the test
   set, the untestable and aborted fault lists and the PODEM counters.
   Pinned from the full-resimulation PODEM; the incremental implication
   must reproduce them byte for byte. *)
let atpg_digest (r : Atpg.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun t ->
      Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) t;
      Buffer.add_char b '\n')
    r.Atpg.tests;
  let add_list l =
    List.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ',') l
  in
  add_list r.Atpg.untestable;
  Buffer.add_char b '|';
  add_list r.Atpg.aborted;
  Printf.bprintf b "|%d|%d" r.Atpg.podem_stats.Podem.decisions
    r.Atpg.podem_stats.Podem.backtracks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_digests () =
  List.iter
    (fun (name, expected) ->
      let p = Reseed_core.Suite.prepare_circuit ~collapse:true (Library.load name) in
      Alcotest.(check string) name expected (atpg_digest p.Reseed_core.Suite.atpg))
    [
      ("c432", "0ceb50fa8fc720260b03f393a40c908a");
      ("c880", "8ec4843d757b0893f1038e15e43ff64e");
      ("s1238", "1e3e7b50b12ad08f3ddb37d7253e857d");
      ("s953_x2", "86fc03a223efe51a2e0dd8f9bf23f0a9");
    ]

(* [Atpg.run]'s minor-heap allocation on collapsed c880 must grow with
   the work items, never with PODEM decisions.

   - One PODEM call allocates its O(nodes) state once: the PI position
     map, the PO flags, the two value arrays, the level-bucket queue, the
     X-path marks and the decision stack (at most ≈7 words per node with
     headers), the test pattern, and for a new test one
     collateral-dropping sweep (active mask, one packed and simulated
     block: ≈6 words per node on c880).  Decisions and backtracks reuse
     all of it.  Bound: 16 × calls × nodes.
   - One 62-pattern block of the random phase or of the compaction sweep
     draws 62 × PIs random bits (≈6 words each: [Rng] boxes its Int64
     state), packs and simulates the block (PIs + nodes words) and makes
     at most one first-detection entry per fault (a slot and a [Some]).
     Bound: 8 × blocks × (faults + 62 × PIs).

   Arrays over 256 words go straight to the major heap and are not
   counted here; the bound covers them anyway.  The old PODEM
   re-simulated both machines per decision: 42.3M words here, against a
   bound of about 1.2M. *)
let test_atpg_allocation_bound () =
  let c = Library.load "c880" in
  let p = Reseed_core.Suite.prepare_circuit ~collapse:true c in
  let sim = p.Reseed_core.Suite.sim in
  let config = Atpg.default_config in
  let before = Gc.minor_words () in
  let r = Atpg.run ~config sim in
  let words = Gc.minor_words () -. before in
  (* The random phase is replayed (same seed, same budget) to split the
     pre-compaction test set into random and PODEM tests. *)
  let random =
    Random_gen.run sim ~rng:(Rng.create config.Atpg.seed)
      ~max_patterns:config.Atpg.max_random_patterns ()
  in
  let generated = Array.length r.Atpg.tests + r.Atpg.dropped_by_compaction in
  let calls =
    generated - Array.length random.Random_gen.tests
    + List.length r.Atpg.untestable + List.length r.Atpg.aborted
  in
  let blocks_of n = (n + 61) / 62 in
  let blocks = blocks_of r.Atpg.random_patterns_tried + blocks_of generated in
  let nodes = Circuit.node_count c and faults = Fault_sim.fault_count sim in
  let bound =
    (16 * calls * nodes) + (8 * blocks * (faults + (62 * Circuit.input_count c)))
  in
  Printf.printf "c880 Atpg.run: %.0f minor words (bound %d: %d calls, %d blocks)\n"
    words bound calls blocks;
  check "allocation linear in calls and blocks" true (words <= float_of_int bound)

let suite =
  [
    ( "podem",
      [
        Alcotest.test_case "derives valid tests for all c17 faults" `Quick test_all_c17_faults;
        Alcotest.test_case "structured circuits" `Slow test_structured_circuits;
        Alcotest.test_case "proves redundancy (constant node)" `Quick test_redundant_fault_proven;
        Alcotest.test_case "proves redundancy (masked)" `Quick test_masked_internal_fault;
        Alcotest.test_case "wide AND coincidence" `Quick test_wide_and_needs_coincidence;
        Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
        Alcotest.test_case "abort budget" `Quick test_abort_budget;
        Alcotest.test_case "golden ATPG digests" `Quick test_golden_digests;
        Alcotest.test_case "allocation bound" `Quick test_atpg_allocation_bound;
      ] );
  ]

open Reseed_atpg
open Reseed_fault
open Reseed_netlist
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup () =
  let c = Library.comparator 6 in
  let faults = Fault.all c in
  (c, Fault_sim.create c faults)

let test_compaction_never_loses_coverage () =
  let c, sim = setup () in
  let rng = Rng.create 11 in
  let n = Circuit.input_count c in
  let tests = Array.init 200 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let before = Fault_sim.detected_set sim tests ~active in
  let kept, dropped = Compact.reverse_order sim tests in
  let after = Fault_sim.detected_set sim kept ~active in
  check "coverage preserved" true (Bitvec.equal before after);
  check_int "kept + dropped = total" 200 (Array.length kept + dropped);
  check "drops redundancy" true (dropped > 0)

let test_compaction_keeps_order () =
  let c, sim = setup () in
  let rng = Rng.create 12 in
  let n = Circuit.input_count c in
  let tests = Array.init 50 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let kept, _ = Compact.reverse_order sim tests in
  (* kept must be a subsequence of tests *)
  let rec subseq i j =
    if i >= Array.length kept then true
    else if j >= Array.length tests then false
    else if kept.(i) = tests.(j) then subseq (i + 1) (j + 1)
    else subseq i (j + 1)
  in
  check "subsequence" true (subseq 0 0)

let test_compaction_empty () =
  let _, sim = setup () in
  let kept, dropped = Compact.reverse_order sim [||] in
  check_int "empty kept" 0 (Array.length kept);
  check_int "empty dropped" 0 dropped

let test_random_gen_useful_patterns () =
  let _, sim = setup () in
  let rng = Rng.create 13 in
  let r = Random_gen.run sim ~rng () in
  check "made progress" true (Bitvec.count r.Random_gen.detected > 0);
  (* every kept pattern was a first-detector, so re-simulating the kept set
     must reach the same coverage *)
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let re = Fault_sim.detected_set sim r.Random_gen.tests ~active in
  check "kept patterns reach recorded coverage" true
    (Bitvec.subset r.Random_gen.detected re)

let test_random_gen_respects_already () =
  let _, sim = setup () in
  let rng = Rng.create 14 in
  let nf = Fault_sim.fault_count sim in
  let already = Bitvec.create nf in
  Bitvec.fill_all already;
  (* everything already detected: nothing to do *)
  let r = Random_gen.run sim ~rng ~already () in
  check "no new detections" true (Bitvec.is_empty r.Random_gen.detected);
  check_int "no kept tests" 0 (Array.length r.Random_gen.tests)

let test_random_gen_budget () =
  let _, sim = setup () in
  let rng = Rng.create 15 in
  let r = Random_gen.run sim ~rng ~max_patterns:62 ~give_up_after:1 () in
  check "budget respected" true (r.Random_gen.patterns_tried <= 124)

let test_covering_compaction_optimal () =
  let _, sim = setup () in
  let rng = Rng.create 21 in
  let c = Library.comparator 6 in
  let n = Circuit.input_count c in
  let tests = Array.init 120 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
  let active = Bitvec.create (Fault_sim.fault_count sim) in
  Bitvec.fill_all active;
  let before = Fault_sim.detected_set sim tests ~active in
  let kept_cov, dropped_cov = Compact.covering sim tests in
  let after = Fault_sim.detected_set sim kept_cov ~active in
  check "coverage preserved" true (Bitvec.equal before after);
  check "drops something" true (dropped_cov > 0);
  (* exact covering compaction is never worse than reverse-order *)
  let kept_rev, _ = Compact.reverse_order sim tests in
  check "covering <= reverse-order" true
    (Array.length kept_cov <= Array.length kept_rev)

let test_covering_compaction_empty () =
  let _, sim = setup () in
  let kept, dropped = Compact.covering sim [||] in
  check_int "empty" 0 (Array.length kept);
  check_int "none dropped" 0 dropped

(* Reference reverse-order compaction: the full detection map, then a
   backward walk keeping each pattern that detects a fault no later
   pattern detects. *)
let reverse_order_by_map sim tests =
  let n = Array.length tests in
  let map = Fault_sim.detection_map sim tests in
  let needed = Array.map (fun v -> not (Bitvec.is_empty v)) map in
  let keep = Array.make n false in
  for p = n - 1 downto 0 do
    Array.iteri
      (fun fi v ->
        if needed.(fi) && Bitvec.get v p then begin
          keep.(p) <- true;
          needed.(fi) <- false
        end)
      map
  done;
  let kept = Array.of_list (List.filteri (fun p _ -> keep.(p)) (Array.to_list tests)) in
  (kept, n - Array.length kept)

let same_compaction sim tests =
  let kept, dropped = Compact.reverse_order sim tests in
  let ref_kept, ref_dropped = reverse_order_by_map sim tests in
  dropped = ref_dropped && kept = ref_kept

(* On the uncompacted ATPG test set followed by random patterns, so the
   last patterns detect little that earlier ones did not. *)
let test_reverse_order_matches_map () =
  List.iter
    (fun name ->
      let c = Library.load name in
      let sim, r =
        Atpg.run_circuit ~config:{ Atpg.default_config with Atpg.compaction = false } c
      in
      let rng = Rng.create 31 in
      let n = Circuit.input_count c in
      let extra = Array.init 70 (fun _ -> Array.init n (fun _ -> Rng.bool rng)) in
      let tests = Array.append r.Atpg.tests extra in
      check (name ^ " identical kept set") true (same_compaction sim tests))
    [ "c432"; "s420" ]

(* Random pattern sequences drawn with repetition from a small pool over
   a random handful of c432 faults: duplicates, patterns that detect
   nothing, and sequences across the 62-pattern block boundary. *)
let prop_reverse_order_matches_map =
  let c = Library.load "c432" in
  let faults = Fault.all c in
  let nf = Array.length faults in
  let rng = Rng.create 32 in
  let n = Circuit.input_count c in
  let pool =
    Array.append
      [| Array.make n false |]
      (Array.init 39 (fun _ -> Array.init n (fun _ -> Rng.bool rng)))
  in
  QCheck.Test.make ~name:"reverse_order = detection-map reference" ~count:100
    QCheck.(
      pair (small_list (int_bound (nf - 1)))
        (list_of_size Gen.(int_range 0 150) (int_bound (Array.length pool - 1))))
    (fun (fault_ids, picks) ->
      let subset = Array.of_list (List.map (fun i -> faults.(i)) (List.sort_uniq compare fault_ids)) in
      let sim = Fault_sim.create c subset in
      same_compaction sim (Array.of_list (List.map (fun i -> pool.(i)) picks)))

let suite =
  [
    ( "compact+random_gen",
      [
        Alcotest.test_case "compaction preserves coverage" `Quick test_compaction_never_loses_coverage;
        Alcotest.test_case "compaction keeps order" `Quick test_compaction_keeps_order;
        Alcotest.test_case "compaction of empty set" `Quick test_compaction_empty;
        Alcotest.test_case "compaction matches detection-map reference" `Quick
          test_reverse_order_matches_map;
        QCheck_alcotest.to_alcotest prop_reverse_order_matches_map;
        Alcotest.test_case "random phase useful patterns" `Quick test_random_gen_useful_patterns;
        Alcotest.test_case "already-detected respected" `Quick test_random_gen_respects_already;
        Alcotest.test_case "pattern budget respected" `Quick test_random_gen_budget;
        Alcotest.test_case "covering compaction optimal" `Quick test_covering_compaction_optimal;
        Alcotest.test_case "covering compaction empty" `Quick test_covering_compaction_empty;
      ] );
  ]

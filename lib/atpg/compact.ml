open Reseed_fault
open Reseed_setcover
open Reseed_util

(* Pattern [p] is kept exactly when it is the last pattern to detect some
   fault: that fault's first detection in the reversed sequence.  So one
   fault-dropping sweep over the reversed array decides every pattern,
   and faults no pattern detects never hold one hostage. *)
let reverse_order sim tests =
  let n = Array.length tests in
  let reversed = Array.init n (fun k -> tests.(n - 1 - k)) in
  let keep = Array.make n false in
  Array.iter
    (function Some k -> keep.(n - 1 - k) <- true | None -> ())
    (Fault_sim.first_detections sim reversed);
  let kept = Array.of_list (List.filteri (fun p _ -> keep.(p)) (Array.to_list tests)) in
  (kept, n - Array.length kept)

let covering sim tests =
  let n = Array.length tests in
  if n = 0 then ([||], 0)
  else begin
    (* Rows: patterns; columns: faults.  detection_map is fault-major, so
       transpose while building the covering instance. *)
    let map = Fault_sim.detection_map sim tests in
    let nf = Array.length map in
    let rows = Array.init n (fun _ -> Bitvec.create nf) in
    Array.iteri
      (fun fi per_pattern ->
        Bitvec.iter_ones (fun p -> Bitvec.set rows.(p) fi) per_pattern)
      map;
    let m = Matrix.of_rows ~cols:nf rows in
    let solution = Solution.solve m in
    let keep = Array.make n false in
    List.iter (fun p -> keep.(p) <- true) solution.Solution.rows;
    let kept =
      Array.of_list (List.filteri (fun p _ -> keep.(p)) (Array.to_list tests))
    in
    (kept, n - Array.length kept)
  end

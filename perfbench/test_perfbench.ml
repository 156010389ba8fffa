(* The benchmark's own tests, on small episodes and no time budget (so
   an untraced run is exactly [min_episodes] episodes) so that counts
   are exact: one seed repeats its counts, and another seed passes
   every correctness and span/counter check in a traced run. *)

module B = Perfbench.Bench

let settings workload ~seed ~trace =
  { B.workload; seed; seconds = 0.; units = Some 200; trace }

let failed_checks (r : B.result) = List.filter_map (fun (k, ok) -> if ok then None else Some k) r.checks

let same_counts workload () =
  let a = B.run (settings workload ~seed:1 ~trace:false) in
  let b = B.run (settings workload ~seed:1 ~trace:false) in
  Alcotest.(check (list string)) "checks" [] (failed_checks a);
  Alcotest.(check (list (pair string int))) "counts" a.counts b.counts

let traced_second_seed workload () =
  let r = B.run (settings workload ~seed:2 ~trace:true) in
  Alcotest.(check (list string)) "checks" [] (failed_checks r);
  Alcotest.(check int) "attempted" 200 r.attempted

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        List.map (fun (name, w) -> Alcotest.test_case name `Quick (same_counts w)) B.workloads );
      ( "traced",
        List.map (fun (name, w) -> Alcotest.test_case name `Quick (traced_second_seed w)) B.workloads );
    ]

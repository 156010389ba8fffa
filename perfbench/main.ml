(* Command line: run one workload and print its result.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the host stamp, every correctness check, every metric with
   its unit and the ungated wall-clock figures, then, as the last line,
   one JSON object with the keys correct, attempted, failed and
   metrics.  Exits 1 when a check fails. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (oltp-durable|hot-rmw|agentic-sagas) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := Some (match List.assoc_opt v Perfbench.Bench.workloads with Some w -> w | None -> usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match float_of_string_opt v with Some x when x > 0. -> x | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  let r = Perfbench.Bench.run { workload; seed = !seed; seconds = !seconds; units = None; trace = !trace } in
  Printf.printf "host %s\n" (Perfbench.Bench.stamp_json r.host);
  List.iter (fun (k, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") k) r.checks;
  List.iter (fun (k, v, u) -> Printf.printf "metric %s = %.17g %s\n" k v u) r.metrics;
  List.iter (fun (k, v, u) -> Printf.printf "info %s = %.17g %s\n" k v u) r.info;
  let correct = List.for_all snd r.checks in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct r.attempted
    r.failed
    (String.concat ", "
       (List.map (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" k v u) r.metrics));
  if not correct then exit 1

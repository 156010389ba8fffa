(* In-memory span recorder for the traced run.

   Spans are taken by the benchmark around its own calls into the
   engine, so the library stays unpatched.  A disabled recorder costs
   one branch per wrapped call and allocates nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  unit_id : int;
  start_s : float;
  end_s : float;
  ok : bool;
}

type t = { on : bool; mutable next : int; mutable spans : span list (* newest first *) }

let create ~on = { on; next = 0; spans = [] }
let on t = t.on

let fresh_id t =
  t.next <- t.next + 1;
  t.next

let add t ~id ~name ~parent ~unit_id ~ok start_s end_s =
  if t.on then t.spans <- { id; name; parent; unit_id; start_s; end_s; ok } :: t.spans

(* Time [f] as a span; [f] receives the span's id so nested calls can
   name it as their parent.  A call that raises is recorded with
   [ok = false] and re-raised. *)
let wrap ?(ok = fun _ -> true) t ~name ~parent ~unit_id f =
  if not t.on then f 0
  else begin
    let id = fresh_id t in
    let t0 = Unix.gettimeofday () in
    match f id with
    | r ->
        add t ~id ~name ~parent ~unit_id ~ok:(ok r) t0 (Unix.gettimeofday ());
        r
    | exception e ->
        add t ~id ~name ~parent ~unit_id ~ok:false t0 (Unix.gettimeofday ());
        raise e
  end

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (s.end_s -. s.start_s) else None) t.spans

let count t ~name ~ok = List.length (List.filter (fun s -> s.name = name && s.ok = ok) t.spans)

let to_json s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","parent":%d,"unit":%d,"start_s":%.9f,"end_s":%.9f,"ok":%b}|}
    s.id s.name s.parent s.unit_id s.start_s s.end_s s.ok

(* Write every span as one JSON line after a caller-supplied header
   line (the run's host stamp). *)
let write_jsonl t ~header path =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc

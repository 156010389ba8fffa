(* The closed-loop benchmark: three workloads against the public engine
   API, checked on the live and on the recovered store, measured end to
   end with tracing off and per layer in a separate traced run.
   README.md in this directory gives the load model, why each workload
   was chosen, and what every metric means. *)

module E = Asset_core.Engine
module Sched = Asset_sched.Scheduler
module Store = Asset_storage.Store
module Value = Asset_storage.Value
module Heap_store = Asset_storage.Heap_store
module Log = Asset_wal.Log
module Record = Asset_wal.Record
module Recovery = Asset_wal.Recovery
module Oltp = Asset_workload.Oltp
module Workload = Asset_workload.Workload
module Agentic = Asset_workload.Agentic
module Rng = Asset_util.Rng
module Tid = Asset_util.Id.Tid

type workload = Oltp_durable | Hot_rmw | Agentic_sagas

let workloads = [ ("oltp-durable", Oltp_durable); ("hot-rmw", Hot_rmw); ("agentic-sagas", Agentic_sagas) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* --- the load model --- *)

let clients = 16

(* Units generated per client per refill; the first batch is generated
   during set-up (the generator warm-up). *)
let batch = 256

(* An untraced run is a series of episodes, each a fresh set-up, a
   timed phase of a fixed number of units and the restarts after it,
   repeated until the run's seconds are spent (and at least
   [min_episodes] times).  Set-up and restart repeat this many times in
   each episode; setup_s and recovery_s are medians over every
   repetition. *)
let min_episodes = 3
let setup_reps = 3
let restart_reps = 1
let max_retries = 4

(* oltp-durable: the stock mix over large balances, with part of the
   stock already reserved so early deliveries never find the
   reservation pool empty (conservation still holds: goods are only
   moved from stock to reserved). *)
let oltp_cfg = Oltp.default_config
let balance0 = 1_000_000_000
let stock0 = 1_000_000_000
let prereserved = 1_000

(* hot-rmw: contended read-modify-write under plain strict 2PL. *)
let rmw_spec =
  {
    Workload.default_spec with
    n_objects = 4096;
    ops_per_txn = 8;
    write_ratio = 0.5;
    theta = 0.6;
    yield_between_ops = true;
    read_modify_write = true;
  }

(* agentic-sagas *)
let docs = 16
let budget0 = 1_000_000_000
let lock_timeout_steps = 400

(* Units in one episode's timed phase: at least 1000, so that its p99
   latency has ten samples beyond it.  A fixed count makes every
   episode the same amount of work, so the queues and the log grow to
   the same length in each.  On a 2-core host a timed phase takes about
   2.3 s on [oltp-durable], 0.4 s on [hot-rmw] and 1.8 s on
   [agentic-sagas].  The [oltp-durable] episode is long enough that its
   p99 is set by the growth of the queues, not by a few scheduling
   stalls of the host. *)
let episode_units = function Oltp_durable -> 6_000 | Hot_rmw -> 2_000 | Agentic_sagas -> 1_000

(* [max_transactions] bounds every transaction an engine ever
   initiates, and a timed run may exceed the default. *)
let engine_config w =
  let c = { E.default_config with max_transactions = max_int } in
  match w with
  | Oltp_durable -> { c with group_commit_size = clients }
  | Hot_rmw -> c
  | Agentic_sagas -> { c with lock_wait_timeout_steps = lock_timeout_steps }

type settings = {
  workload : workload;
  seed : int;
  seconds : float;  (** Run episodes until this many seconds have passed. *)
  units : int option;  (** Units per episode instead of [episode_units]. *)
  trace : bool;
}

(* WAL directories and span files go here, relative to the working
   directory. *)
let out_dir = "_perfbench"

let now = Unix.gettimeofday

(* The process's CPU time, user and system.  The benchmark's host is a
   virtual machine whose hypervisor at times steals a third of its CPU
   for minutes on end, which stretches every wall-clock figure; the
   kernel leaves stolen time out of a process's CPU time.  The gated
   times are read from this clock, so that they measure the engine and
   not its neighbours.  Time spent blocked (in fsync) is left out as
   well; the wall-clock figures are printed beside them. *)
let cpu = Sys.time

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* --- generators --- *)

type 'u feed = { gen : int -> 'u array; mutable buf : 'u array; mutable pos : int; mutable batch_no : int }

let feed gen = { gen; buf = gen 0; pos = 0; batch_no = 0 }

let next f =
  if f.pos >= Array.length f.buf then begin
    f.batch_no <- f.batch_no + 1;
    f.buf <- f.gen f.batch_no;
    f.pos <- 0
  end;
  f.pos <- f.pos + 1;
  f.buf.(f.pos - 1)

(* Client [c]'s [b]-th batch has its own seed, so every client's unit
   stream is fixed by the workload seed alone. *)
let stream_seed seed c b = (((seed * 65_537) + c) * 1_000_003) + b

type work =
  | Oltp_work of Oltp.txn feed array
  | Rmw_work of Workload.op list feed array
  | Agent_work of Agentic.plan feed array

let work w seed =
  let per_client mk = Array.init clients (fun c -> feed (mk c)) in
  match w with
  | Oltp_durable ->
      Oltp_work
        (per_client (fun c b ->
             let rng = Rng.create (stream_seed seed c b) in
             Array.init batch (fun _ -> Oltp.gen_txn ~rng oltp_cfg)))
  | Hot_rmw ->
      Rmw_work
        (per_client (fun c b ->
             Array.of_list
               (Workload.generate { rmw_spec with n_txns = batch; seed = stream_seed seed c b })))
  | Agentic_sagas ->
      Agent_work
        (per_client (fun c b ->
             let rng = Rng.create (stream_seed seed c b) in
             Array.init batch (fun _ -> Agentic.gen_plan ~rng ~docs ~agent:c)))

(* The store image every run and every restart starts from. *)
let image = function
  | Oltp_durable ->
      let st = Heap_store.store () in
      Oltp.setup st oltp_cfg ~balance0 ~stock0;
      for i = 0 to oltp_cfg.items - 1 do
        Store.write st (Oltp.stock i) (Value.of_int (stock0 - prereserved))
      done;
      Store.write st Oltp.reserved (Value.of_int (oltp_cfg.items * prereserved));
      st
  | Hot_rmw ->
      let st = Heap_store.store () in
      Heap_store.populate st ~n:rmw_spec.n_objects ~value:(fun _ -> Value.of_int 0);
      st
  | Agentic_sagas ->
      let st = Heap_store.store () in
      Agentic.setup st ~docs ~budget0;
      st

type world = {
  db : E.t;
  log : Log.t;
  wal_dir : string option;
  work : work;
  backoff_rng : Rng.t array;
}

let setup s ~rep =
  let store = image s.workload in
  let wal_dir, log =
    match s.workload with
    | Oltp_durable ->
        let d =
          Filename.concat out_dir
            (Printf.sprintf "wal-%s-%d-%d" (workload_name s.workload) (Unix.getpid ()) rep)
        in
        rm_rf d;
        (Some d, Log.create_dir d)
    | Hot_rmw | Agentic_sagas -> (None, Log.in_memory ())
  in
  {
    db = E.create ~config:(engine_config s.workload) ~log store;
    log;
    wal_dir;
    work = work s.workload s.seed;
    backoff_rng = Array.init clients (fun c -> Rng.create (stream_seed s.seed c (-1)));
  }

let discard w =
  match w.wal_dir with
  | Some d ->
      Log.close w.log;
      rm_rf d
  | None -> ()

(* Set up [setup_reps] times and keep the last world, with every
   set-up's CPU time. *)
let timed_setup s =
  let rec go rep times =
    let t0 = cpu () in
    let w = setup s ~rep in
    let times = (cpu () -. t0) :: times in
    if rep + 1 >= setup_reps then (w, times)
    else begin
      discard w;
      go (rep + 1) times
    end
  in
  go 0 []

(* --- the closed loop --- *)

type tally = {
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable lats : float list;  (** completed units' latencies, newest first *)
  mutable cpu_lats : float list;  (** the same on the CPU clock *)
  mutable new_orders : int;
  mutable history_items : int;
  mutable writes : int;
  mutable spend : int;
  mutable audit : int;
  mutable plan_steps : int;
  mutable compensations : int;
  mutable plan_retries : int;
}

let fresh_tally () =
  {
    submitted = 0;
    completed = 0;
    failed = 0;
    lats = [];
    cpu_lats = [];
    new_orders = 0;
    history_items = 0;
    writes = 0;
    spend = 0;
    audit = 0;
    plan_steps = 0;
    compensations = 0;
    plan_retries = 0;
  }

let backoff rng k =
  for _ = 1 to Rng.int rng (min 64 (2 lsl k)) do
    Sched.yield ()
  done

(* One transaction with typed retry: true once commit returned true. *)
let run_txn w sp ~rng ~unit_id ~parent ~read_only body =
  let db = w.db in
  let rec attempt k =
    let t =
      Span.wrap sp ~name:"core.initiate" ~parent ~unit_id (fun _ -> E.initiate ~read_only db body)
    in
    if Tid.is_null t then false
    else begin
      ignore (E.begin_ db t);
      if Span.wrap ~ok:Fun.id sp ~name:"core.commit" ~parent ~unit_id (fun _ -> E.commit db t)
      then true
      else if not (Workload.retryable (E.failure_of db t)) then false
      else if k < max_retries then begin
        E.note_retry db;
        backoff rng k;
        attempt (k + 1)
      end
      else begin
        E.note_give_up db;
        false
      end
    end
  in
  attempt 0

let op sp ~parent ~unit_id f =
  Span.wrap sp ~name:"core.op" ~parent ~unit_id (fun _ -> f ());
  Sched.yield ()

(* Run client [client]'s next unit; true when it completed. *)
let run_unit w sp tl ~client ~unit_id ~parent =
  let rng = w.backoff_rng.(client) in
  match w.work with
  | Oltp_work feeds ->
      let txn = next feeds.(client) in
      let body () =
        List.iter (fun o -> op sp ~parent ~unit_id (fun () -> Oltp.apply w.db o)) (Oltp.ops_of txn)
      in
      let ok = run_txn w sp ~rng ~unit_id ~parent ~read_only:(Oltp.read_only txn) body in
      (if ok then
         match txn.Oltp.t_klass with
         | Oltp.New_order -> tl.new_orders <- tl.new_orders + 1
         | Oltp.Payment | Oltp.Delivery -> tl.history_items <- tl.history_items + 1
         | Oltp.Stock_check -> ());
      ok
  | Rmw_work feeds ->
      let ops = next feeds.(client) in
      let body () =
        List.iter
          (fun o -> op sp ~parent ~unit_id (Workload.body_of_ops w.db ~yield:false ~rmw:true [ o ]))
          ops
      in
      let ok = run_txn w sp ~rng ~unit_id ~parent ~read_only:false body in
      if ok then
        tl.writes <-
          tl.writes + List.length (List.filter (function Workload.Write _ -> true | Workload.Read _ -> false) ops);
      ok
  | Agent_work feeds ->
      let plan = next feeds.(client) in
      let o = Agentic.run_plan ~max_retries ~rng w.db plan in
      tl.spend <- tl.spend + o.o_spend;
      tl.audit <- tl.audit + o.o_audit;
      tl.plan_steps <- tl.plan_steps + o.o_committed;
      tl.compensations <- tl.compensations + o.o_compensated;
      tl.plan_retries <- tl.plan_retries + o.o_retries;
      (* A planned tool failure that compensates is a completed unit;
         a give-up or an unplanned rollback is not. *)
      o.o_gave_up = 0 && not (o.o_failed && plan.fail_at = None)

type phase = {
  tl : tally;
  elapsed : float;
  cpu_elapsed : float;
  steps : int;
  sched_trace : (int * string) list;
  gc : Gc.stat * Gc.stat;  (** before and after the timed phase *)
}

let units_of s = Option.value s.units ~default:(episode_units s.workload)

(* The timed phase: [clients] fibers in one closed loop, each sending
   its next unit only after the current one finished, until the
   episode's units are submitted.  Drives the scheduler directly (as
   [Runtime.run] does) to keep hold of its recorded trace. *)
let drive s w sp =
  let tl = fresh_tally () in
  let units = units_of s in
  let gc0 = Gc.quick_stat () in
  let t_start = now () and c_start = cpu () in
  let client c () =
    while tl.submitted < units do
      let unit_id = tl.submitted in
      tl.submitted <- unit_id + 1;
      let id = Span.fresh_id sp in
      let t0 = now () and c0 = cpu () in
      let ok = run_unit w sp tl ~client:c ~unit_id ~parent:id in
      let t1 = now () and c1 = cpu () in
      Span.add sp ~id ~name:"unit" ~parent:(-1) ~unit_id ~ok t0 t1;
      if ok then begin
        tl.completed <- tl.completed + 1;
        tl.lats <- (t1 -. t0) :: tl.lats;
        tl.cpu_lats <- (c1 -. c0) :: tl.cpu_lats
      end
      else tl.failed <- tl.failed + 1
    done
  in
  let sched = Sched.create ~max_steps:max_int ~record_trace:(Span.on sp) () in
  E.attach_scheduler w.db sched;
  for c = 0 to clients - 1 do
    ignore (Sched.spawn sched ~label:(Printf.sprintf "client-%d" c) (client c))
  done;
  Sched.run sched;
  E.flush_pending_commits w.db;
  let elapsed = now () -. t_start and cpu_elapsed = cpu () -. c_start in
  let gc1 = Gc.quick_stat () in
  { tl; elapsed; cpu_elapsed; steps = Sched.steps sched; sched_trace = Sched.trace sched; gc = (gc0, gc1) }

(* --- after the timed phase --- *)

let record_kinds =
  [
    "begin"; "update"; "commit"; "abort"; "delegate"; "increment"; "enqueue"; "clr"; "checkpoint";
    "begin_ckpt"; "end_ckpt";
  ]

let record_kind = function
  | Record.Begin _ -> "begin"
  | Record.Update _ -> "update"
  | Record.Commit _ -> "commit"
  | Record.Abort _ -> "abort"
  | Record.Delegate _ -> "delegate"
  | Record.Increment _ -> "increment"
  | Record.Enqueue _ -> "enqueue"
  | Record.Clr _ -> "clr"
  | Record.Checkpoint -> "checkpoint"
  | Record.Begin_ckpt _ -> "begin_ckpt"
  | Record.End_ckpt _ -> "end_ckpt"

type wal = { records : int; encoded : int; by_kind : (string * int) list; commit_records : int }

let scan_wal log =
  let by_kind = Hashtbl.create 16 in
  let records, encoded, commits =
    Log.fold log ~init:(0, 0, 0) ~f:(fun (n, bytes, commits) _ r ->
        let k = record_kind r and b = String.length (Record.encode r) in
        Hashtbl.replace by_kind k (b + Option.value (Hashtbl.find_opt by_kind k) ~default:0);
        (n + 1, bytes + b, if k = "commit" then commits + 1 else commits))
  in
  {
    records;
    encoded;
    by_kind = List.map (fun k -> (k, Option.value (Hashtbl.find_opt by_kind k) ~default:0)) record_kinds;
    commit_records = commits;
  }

type restart = {
  restart_times : float list;  (** load + recover, per repetition *)
  restart_cpu : float list;  (** the same on the CPU clock *)
  load_s : float;  (** median *)
  recover_s : float;  (** median *)
  log_records : int;
  report : Recovery.report;
  store : Store.t;  (** the last restart's store *)
}

(* Restart [restart_reps] times, each into a fresh set-up image: after
   one simulated power loss the segmented WAL is reloaded from disk
   every time; an in-memory log is replayed as it stands. *)
let restart s w =
  let once () =
    let store = image s.workload in
    let t0 = now () and c0 = cpu () in
    let log = match w.wal_dir with Some d -> Log.load_dir d | None -> w.log in
    let t1 = now () in
    let report = Recovery.recover log store in
    let t2 = now () and c2 = cpu () in
    let log_records = Log.length log - Log.start_lsn log in
    if w.wal_dir <> None then Log.close log;
    ((t1 -. t0, t2 -. t1, c2 -. c0), (log_records, report, store))
  in
  if w.wal_dir <> None then Log.crash w.log;
  let runs = List.init restart_reps (fun _ -> once ()) in
  Option.iter rm_rf w.wal_dir;
  let times = List.map fst runs in
  let log_records, report, store = snd (List.hd (List.rev runs)) in
  {
    restart_times = List.map (fun (l, r, _) -> l +. r) times;
    restart_cpu = List.map (fun (_, _, c) -> c) times;
    load_s = median (List.map (fun (l, _, _) -> l) times);
    recover_s = median (List.map (fun (_, r, _) -> r) times);
    log_records;
    report;
    store;
  }

let read_int store oid = match Store.read store oid with Some v -> Value.to_int v | None -> 0
let queue store oid = match Store.read store oid with Some v -> Value.to_queue v | None -> []

let queue_oids = function
  | Oltp_durable -> [ Oltp.orders; Oltp.history ]
  | Agentic_sagas -> [ Agentic.audit ]
  | Hot_rmw -> []

(* The workload's correctness laws, read from [store]. *)
let invariants s tl store =
  match s.workload with
  | Oltp_durable ->
      let orders, history = Oltp.queue_lengths store in
      Oltp.check_conservation store oltp_cfg ~balance0 ~stock0
      @ [
          ("orders = committed new-orders", orders = tl.new_orders);
          ("history = committed payments + deliveries", history = tl.history_items);
        ]
  | Hot_rmw ->
      let sum = ref 0 in
      Store.iter store (fun _ v -> sum := !sum + Value.to_int v);
      [ ("sum of objects = committed writes", !sum = tl.writes) ]
  | Agentic_sagas ->
      [
        ("budget = budget0 - spend", read_int store Agentic.budget = budget0 - tl.spend);
        ("audit length = audit appends", List.length (queue store Agentic.audit) = tl.audit);
      ]

(* --- scheduler trace --- *)

type sched_counts = { parks : int; wakes : int; reparks : int }

(* A re-park is a wake after which the fiber's next park has the same
   reason as the park it woke from: a wake that found nothing to do. *)
let sched_counts trace =
  let last_reason = Hashtbl.create 64 and woke_from = Hashtbl.create 64 in
  let parks = ref 0 and wakes = ref 0 and reparks = ref 0 in
  List.iter
    (fun (fid, ev) ->
      if String.starts_with ~prefix:"park: " ev then begin
        incr parks;
        let reason = String.sub ev 6 (String.length ev - 6) in
        (match Hashtbl.find_opt woke_from fid with
        | Some r when r = reason -> incr reparks
        | _ -> ());
        Hashtbl.remove woke_from fid;
        Hashtbl.replace last_reason fid reason
      end
      else if ev = "wake" then begin
        incr wakes;
        match Hashtbl.find_opt last_reason fid with
        | Some r -> Hashtbl.replace woke_from fid r
        | None -> ()
      end
      else if ev = "yield" || ev = "finished" then Hashtbl.remove woke_from fid)
    trace;
  { parks = !parks; wakes = !wakes; reparks = !reparks }

(* --- host stamp --- *)

let first_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      l

(* A digest of the engine and benchmark sources: identifies the code
   even where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then []
    else
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune" then [ p ]
             else [])
  in
  let fs = files "lib" @ files "perfbench" in
  if fs = [] then "unknown"
  else Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let stamp s =
  let str x = Printf.sprintf "%S" x in
  let nproc =
    match Option.bind (first_line "nproc") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let git =
    if Sys.file_exists ".git" then Option.value (first_line "git rev-parse HEAD") ~default:"unknown"
    else "unknown"
  in
  let durable = s.workload = Oltp_durable in
  [
    ("nproc", string_of_int nproc);
    ("ocaml", str Sys.ocaml_version);
    ("git_commit", str git);
    ("source_digest", str (source_digest ()));
    ("workload", str (workload_name s.workload));
    ("seed", string_of_int s.seed);
    ("clients", string_of_int clients);
    ("group_commit_size", string_of_int (engine_config s.workload).group_commit_size);
    ("log", str (if durable then "segmented WAL on disk" else "in memory"));
    ("fsync_on_force", string_of_bool durable);
    ( "wal_fs",
      str
        (if durable then Option.value (first_line ("stat -f -c %T " ^ Filename.quote out_dir)) ~default:"unknown"
         else "none") );
    ("trace", string_of_bool s.trace);
  ]

let stamp_json kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"

(* --- one episode --- *)

(* Everything measured in one episode: a set-up, a timed phase and the
   restarts after it. *)
type sub = {
  p : phase;
  setup_times : float list;
  r : restart;
  stats : (string * int) list;
  wal : wal;
  forces : int;
  disk_bytes : int;
  queue_items : int;
  queue_bytes : int;
  live_edges : int;
  escrow_inflight : int;
  mvcc_versions : int;
  mvcc_max_chain : int;
  sub_checks : (string * bool) list;
}

let stat stats k = Option.value (List.assoc_opt k stats) ~default:0

let measure s sp =
  let w, setup_times = timed_setup s in
  let p = drive s w sp in
  let stats = E.stats w.db in
  let live = E.store w.db in
  let queue_items, queue_bytes =
    List.fold_left
      (fun (n, b) oid ->
        match Store.read live oid with
        | Some v -> (n + List.length (Value.to_queue v), b + Value.length v)
        | None -> (n, b))
      (0, 0) (queue_oids s.workload)
  in
  let live_edges = stat stats "deps.live_edges" and escrow_inflight = E.escrow_inflight_count w.db in
  let live_checks = invariants s p.tl live in
  let wal = scan_wal w.log and forces = Log.force_count w.log and disk_bytes = Log.appended_bytes w.log in
  let mvcc_versions = E.mvcc_version_count w.db and mvcc_max_chain = E.mvcc_max_chain w.db in
  let r = restart s w in
  let sub_checks =
    List.map (fun (k, ok) -> ("live: " ^ k, ok)) live_checks
    @ List.map (fun (k, ok) -> ("recovered: " ^ k, ok)) (invariants s p.tl r.store)
    @ [
        ("recovered store = live store", Store.equal_content r.store live);
        ("deps.live_edges_end = 0", live_edges = 0);
        ("storage.escrow_inflight_end = 0", escrow_inflight = 0);
      ]
  in
  {
    p;
    setup_times;
    r;
    stats;
    wal;
    forces;
    disk_bytes;
    queue_items;
    queue_bytes;
    live_edges;
    escrow_inflight;
    mvcc_versions;
    mvcc_max_chain;
    sub_checks;
  }

(* --- one run --- *)

type result = {
  host : (string * string) list;  (** key, JSON-encoded value *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  info : (string * float * string) list;  (** wall-clock figures of an untraced run, not gated *)
  counts : (string * int) list;  (** exact counts, equal across runs of one seed and unit quota *)
}

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let heap_peak_bytes () = float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))

(* Episode [i] of seed [n] has its own inputs, fixed by both. *)
let episode_seed seed i = (seed * 1_000_003) + i

(* The untraced run: episodes, each with its own seed, until the run's
   seconds are spent.  Every episode is the same amount of work, so the
   latency percentiles are taken over the completed units of all
   episodes together; rates and log bytes are medians over the
   episodes, set-up and restart times medians over every repetition,
   and the two ratios are pooled.  Gated times are on the CPU clock;
   the wall-clock ones go to [info].  The previous episode's world is
   collected before the next starts, so the process heap peak is one
   episode's. *)
let end_to_end s =
  let t_end = now () +. s.seconds in
  let rec episodes i acc =
    if i >= min_episodes && now () >= t_end then List.rev acc
    else begin
      Gc.full_major ();
      let x = measure { s with seed = episode_seed s.seed i } (Span.create ~on:false) in
      episodes (i + 1) (x :: acc)
    end
  in
  let subs = episodes 0 [] in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 subs in
  let completed = sum (fun x -> x.p.tl.completed) and submitted = sum (fun x -> x.p.tl.submitted) in
  let commits = sum (fun x -> stat x.stats "commits") and aborts = sum (fun x -> stat x.stats "aborts") in
  let largest = List.fold_left (fun acc x -> max acc x.p.tl.completed) 1 subs in
  let median_of f = median (List.map f subs) in
  let pct lats q = 1e6 *. percentile (sorted_array (List.concat_map lats subs)) q in
  let metrics =
    [
      ("setup_s", median (List.concat_map (fun x -> x.setup_times) subs), "s");
      ("txn_per_cpu_s", median_of (fun x -> float x.p.tl.completed /. x.p.cpu_elapsed), "1/s");
      ("latency_p50_cpu_us", pct (fun x -> x.p.tl.cpu_lats) 0.50, "us");
      ("latency_p99_cpu_us", pct (fun x -> x.p.tl.cpu_lats) 0.99, "us");
      ("unit_ok_ratio", float completed /. float (max 1 submitted), "ratio");
      ("attempt_ok_ratio", float commits /. float (max 1 (commits + aborts)), "ratio");
      ("recovery_cpu_s", median (List.concat_map (fun x -> x.r.restart_cpu) subs), "s");
      ("wal_bytes_per_txn", median_of (fun x -> float x.wal.encoded /. float (max 1 x.p.tl.completed)), "B");
      ("heap_peak_kb_per_txn", heap_peak_bytes () /. 1024. /. float largest, "KB");
    ]
  in
  let info =
    [
      ("wall.txn_per_s", median_of (fun x -> float x.p.tl.completed /. x.p.elapsed), "1/s");
      ("wall.latency_p50_us", pct (fun x -> x.p.tl.lats) 0.50, "us");
      ("wall.latency_p99_us", pct (fun x -> x.p.tl.lats) 0.99, "us");
      ("wall.recovery_s", median (List.concat_map (fun x -> x.r.restart_times) subs), "s");
    ]
  in
  ( List.concat_map (fun x -> x.sub_checks) subs,
    submitted,
    sum (fun x -> x.p.tl.failed),
    metrics,
    info,
    [
      ("completed", completed);
      ("commits", commits);
      ("aborts", aborts);
      ("wal_bytes", sum (fun x -> x.wal.encoded));
      ("sched_steps", sum (fun x -> x.p.steps));
      ("recovery_records", sum (fun x -> x.r.log_records));
    ] )

(* The traced run: one untraced phase first, the overhead baseline (the
   gc figures come from it too, so the recorder's own allocation does
   not count), then one traced episode that yields every per-layer
   metric and the span/counter consistency checks. *)
let per_layer s ~host =
  let base =
    let w = setup s ~rep:setup_reps in
    let p = drive s w (Span.create ~on:false) in
    discard w;
    p
  in
  Gc.full_major ();
  let sp = Span.create ~on:true in
  let x = measure s sp in
  let tl = x.p.tl and stats = x.stats and wal = x.wal and r = x.r in
  let units = max 1 tl.completed in
  let per_unit n = float n /. float units in
  let commits = stat stats "commits" and aborts = stat stats "aborts" in
  let sc = sched_counts x.p.sched_trace in
  let txn_checks =
    match s.workload with
    | Agentic_sagas -> []
    | Oltp_durable | Hot_rmw ->
        [
          ("spans: committed commit spans = engine commits", Span.count sp ~name:"core.commit" ~ok:true = commits);
          ("spans: failed commit spans = engine aborts", Span.count sp ~name:"core.commit" ~ok:false = aborts);
        ]
  in
  let checks =
    x.sub_checks @ txn_checks
    @ [
        ( "spans: unit spans = units submitted",
          Span.count sp ~name:"unit" ~ok:true + Span.count sp ~name:"unit" ~ok:false = tl.submitted );
        ("sched: every park event has its wake event", sc.parks = sc.wakes);
      ]
  in
  let us_pct name q = 1e6 *. percentile (sorted_array (Span.durations sp name)) q in
  (* completion order, oldest first *)
  let lats = Array.of_list (List.rev tl.lats) in
  let mean_lat a b =
    let n = b - a in
    if n <= 0 then 0.
    else
      let s = ref 0. in
      for i = a to b - 1 do
        s := !s +. lats.(i)
      done;
      !s /. float n
  in
  let n = Array.length lats in
  let early = mean_lat 0 (n / 4) and late = mean_lat (n - (n / 4)) n in
  let g0, g1 = base.gc in
  let base_units = float (max 1 base.tl.completed) in
  let acquires = stat stats "lock.acquires" and blocks = stat stats "lock.blocks" in
  let metrics =
    [
      ("core.op_us_p50", us_pct "core.op" 0.50, "us");
      ("core.op_us_p99", us_pct "core.op" 0.99, "us");
      ("core.commit_us_p50", us_pct "core.commit" 0.50, "us");
      ("core.commit_us_p99", us_pct "core.commit" 0.99, "us");
      ("core.initiate_us", us_pct "core.initiate" 0.50, "us");
      ("core.attempts_per_txn", per_unit (commits + aborts), "count");
      ("core.late_early_latency_ratio", (if early > 0. then late /. early else 0.), "ratio");
      ("core.latency_samples", float tl.completed, "count");
      ("sched.steps_per_txn", per_unit x.p.steps, "count");
      ("sched.parks_per_txn", per_unit sc.parks, "count");
      ("sched.wakes_per_txn", per_unit sc.wakes, "count");
      ("sched.repark_ratio", float sc.reparks /. float (max 1 sc.wakes), "ratio");
      ("lock.acquires_per_txn", per_unit acquires, "count");
      ("lock.blocks_per_txn", per_unit blocks, "count");
      ("lock.block_ratio", float blocks /. float (max 1 acquires), "ratio");
      ("lock.cycle_checks_per_txn", per_unit (stat stats "lock.cycle_checks"), "count");
      ("lock.deadlock_victims_per_txn", per_unit (stat stats "deadlock_victims"), "count");
      ("lock.timeouts_per_txn", per_unit (stat stats "lock_timeouts"), "count");
      ("deps.formed_per_txn", per_unit (stat stats "deps.formed"), "count");
      ("deps.rejected_per_txn", per_unit (stat stats "deps.rejected"), "count");
      ("deps.live_edges_end", float x.live_edges, "count");
      ("wal.records_per_txn", per_unit wal.records, "count");
      ("wal.forces_per_txn", per_unit x.forces, "count");
      ("wal.commits_per_force", float wal.commit_records /. float (max 1 x.forces), "ratio");
      ("wal.disk_bytes_per_txn", per_unit x.disk_bytes, "B");
    ]
    @ List.map (fun (k, b) -> ("wal.bytes." ^ k, per_unit b, "B")) wal.by_kind
    @ [
        ("recovery.load_s", r.load_s, "s");
        ("recovery.recover_s", r.recover_s, "s");
        ("recovery.records", float r.log_records, "count");
        ("recovery.updates_redone", float r.report.updates_redone, "count");
        ("recovery.updates_undone", float r.report.updates_undone, "count");
        ("recovery.losers", float (List.length r.report.losers), "count");
        ("recovery.us_per_record", 1e6 *. r.recover_s /. float (max 1 r.log_records), "us");
        ("storage.queue_items_end", float x.queue_items, "count");
        ("storage.queue_bytes_end", float x.queue_bytes, "B");
        ("storage.mvcc_versions_end", float x.mvcc_versions, "count");
        ("storage.mvcc_max_chain", float x.mvcc_max_chain, "count");
        ("storage.snapshot_reads_per_txn", per_unit (stat stats "snapshot_reads"), "count");
        ("storage.escrow_inflight_end", float x.escrow_inflight, "count");
        ("agentic.steps_per_plan", per_unit tl.plan_steps, "count");
        ("agentic.compensations_per_plan", per_unit tl.compensations, "count");
        ("agentic.retries_per_plan", per_unit tl.plan_retries, "count");
        ("gc.minor_words_per_txn", (g1.minor_words -. g0.minor_words) /. base_units, "words");
        ("gc.promoted_words_per_txn", (g1.promoted_words -. g0.promoted_words) /. base_units, "words");
        ("gc.major_collections", float (g1.major_collections - g0.major_collections), "count");
        ("gc.heap_peak_mb", heap_peak_bytes () /. 1048576., "MB");
        ( "trace.overhead_ratio",
          (float tl.completed /. x.p.elapsed) /. (float base.tl.completed /. base.elapsed),
          "ratio" );
      ]
  in
  Span.write_jsonl sp ~header:(stamp_json host)
    (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" (workload_name s.workload) s.seed));
  ( checks,
    tl.submitted,
    tl.failed,
    metrics,
    [],
    [
      ("completed", tl.completed);
      ("commits", commits);
      ("aborts", aborts);
      ("wal_bytes", wal.encoded);
      ("sched_steps", x.p.steps);
      ("recovery_records", r.log_records);
    ] )

let run s =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let host = stamp s in
  let checks, attempted, failed, metrics, info, counts = if s.trace then per_layer s ~host else end_to_end s in
  { host; checks; attempted; failed; metrics; info; counts }

(** A reusable worker-domain pool, the one place the system spawns
    domains. Spawning a domain costs hundreds of microseconds; a caller
    that runs many parallel sweeps passes one pool to all of them and
    pays that cost once.

    The pool runs batches of thunks: {!run} enqueues them all, workers
    drain the queue, and the call returns when every thunk has finished.
    Only one batch runs at a time (callers are sequential between
    sweeps); an exception raised by a thunk is stashed and
    re-raised in the caller after the batch drains, so no worker domain
    is ever lost to an exception. *)

type task = unit -> unit

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;  (** signalled on enqueue and shutdown *)
  batch_done : Condition.t;  (** signalled when [pending] reaches 0 *)
  queue : task Queue.t;
  mutable pending : int;  (** enqueued or running tasks of this batch *)
  mutable stashed : (exn * Printexc.raw_backtrace) option;
  mutable quit : bool;
  mutable domains : unit Domain.t list;
}

let size t = List.length t.domains

let worker (t : t) () =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.quit then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.mutex;
            Some task
        | None ->
            Condition.wait t.work_available t.mutex;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some task ->
        (try task ()
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock t.mutex;
           if t.stashed = None then t.stashed <- Some (e, bt);
           Mutex.unlock t.mutex);
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.batch_done;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create n =
  let n = max 1 n in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stashed = None;
      quit = false;
      domains = [];
    }
  in
  t.domains <- List.init n (fun _ -> Domain.spawn (worker t));
  t

let run (t : t) (tasks : task list) =
  match tasks with
  | [] -> ()
  | _ ->
      Mutex.lock t.mutex;
      if t.quit then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.run: pool is shut down"
      end;
      t.stashed <- None;
      List.iter (fun task -> Queue.add task t.queue) tasks;
      t.pending <- t.pending + List.length tasks;
      Condition.broadcast t.work_available;
      while t.pending > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      let stashed = t.stashed in
      t.stashed <- None;
      Mutex.unlock t.mutex;
      (match stashed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

let shutdown (t : t) =
  Mutex.lock t.mutex;
  if not t.quit then begin
    t.quit <- true;
    Condition.broadcast t.work_available
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(** [with_pool n f] runs [f pool] and always shuts the pool down. *)
let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** One fewer than the recommended domain count, clamped to [1, 8] —
    the parallel sweep's default worker count. *)
let default_size () =
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

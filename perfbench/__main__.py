from perfbench.run import main

raise SystemExit(main())

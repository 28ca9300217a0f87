import sys

from ledger.cli import main

sys.exit(main())
